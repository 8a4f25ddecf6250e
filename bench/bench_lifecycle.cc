// Lifecycle benchmarks (DESIGN.md §14): the cost of retiring the
// append-only assumption. Three questions on one generated universe:
//  * mutation cost — Replace (supersede a live spec in place) and the
//    Unregister+Register churn cycle, both dominated by the LTL→BA
//    translation plus the copy-on-write prefilter/history swaps;
//  * time-travel cost — as-of queries prefilter the versions still live
//    and check every visible history version in full (history is not
//    indexed), so BM_QueryAsOf_* against BM_QueryLatest prices exactly
//    what the historical guarantee costs;
//  * depth sensitivity — as-of at the pre-churn clock resolves against the
//    deepest history, as-of at mid-churn against versions the later churn
//    rounds superseded.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace ctdb;

struct LifecycleFixture {
  bench::Universe universe;
  /// Replacement specifications (medium complexity, same vocabulary).
  std::vector<std::string> specs;
  /// Currently live contract ids, rotated by the churn benchmarks.
  std::vector<uint32_t> live;
  uint64_t pre_churn_clock = 0;  ///< deepest as-of point (all originals)
  uint64_t mid_churn_clock = 0;  ///< mixed live/history as-of point
  size_t next_name = 0;          ///< churn registration counter

  LifecycleFixture() {
    const double scale = bench::Scale();
    const size_t contracts =
        std::max<size_t>(16, static_cast<size_t>(400 * scale));
    const size_t queries =
        std::max<size_t>(6, static_cast<size_t>(60 * scale));
    universe = bench::BuildUniverse(contracts, 3, queries);
    specs = bench::GenerateQueries(universe.db.get(), "medium", 2, 32,
                                   bench::DefaultSeed() ^ 0x11FE)
                .queries;
    pre_churn_clock = universe.db->last_sequence();
    // Churn prologue: supersede every contract a few times so the as-of
    // benchmarks resolve against a real history store, not an empty one.
    size_t spec_i = 0;
    for (size_t round = 0; round < 4; ++round) {
      for (uint32_t id = 0; id < contracts; ++id) {
        auto r = universe.db->Replace(id, specs[spec_i++ % specs.size()]);
        if (!r.ok()) abort();
      }
      if (round == 1) mid_churn_clock = universe.db->last_sequence();
    }
    for (uint32_t id = 0; id < contracts; ++id) live.push_back(id);
  }
};

LifecycleFixture* GetFixture() {
  static LifecycleFixture* fixture = new LifecycleFixture();
  return fixture;
}

std::vector<std::string> AllQueries() {
  std::vector<std::string> queries;
  for (const bench::QuerySet& set : GetFixture()->universe.query_sets) {
    queries.insert(queries.end(), set.queries.begin(), set.queries.end());
  }
  return queries;
}

// Supersession in place: translate the new spec, swap the prefilter entry
// copy-on-write, move the old version (projections included) to history.
void BM_Replace(benchmark::State& state) {
  LifecycleFixture* f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const uint32_t id = f->live[i % f->live.size()];
    auto r = f->universe.db->Replace(id, f->specs[i % f->specs.size()]);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Replace);

// Full churn cycle: retire a live contract (its slot becomes a hole) and
// register a fresh one, keeping the live set size constant.
void BM_UnregisterRegister(benchmark::State& state) {
  LifecycleFixture* f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const uint32_t victim = f->live[i % f->live.size()];
    auto gone = f->universe.db->Unregister(victim);
    if (!gone.ok()) state.SkipWithError(gone.status().ToString().c_str());
    auto fresh = f->universe.db->Register(
        "churn-" + std::to_string(f->next_name++),
        f->specs[i % f->specs.size()]);
    if (!fresh.ok()) state.SkipWithError(fresh.status().ToString().c_str());
    f->live[i % f->live.size()] = *fresh;
    benchmark::DoNotOptimize(fresh);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnregisterRegister);

void EvaluateQueries(benchmark::State& state, uint64_t as_of) {
  LifecycleFixture* f = GetFixture();
  const std::vector<std::string> queries = AllQueries();
  broker::QueryOptions options = bench::OptimizedOptions();
  options.as_of = as_of;
  for (auto _ : state) {
    for (const std::string& q : queries) {
      auto r = f->universe.db->Query(q, options);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}

// The baseline: the prefiltered, projected latest-snapshot path.
void BM_QueryLatest(benchmark::State& state) { EvaluateQueries(state, 0); }
BENCHMARK(BM_QueryLatest);

// As-of at the mid-churn clock: the churn replaced every contract after it,
// so every visible version is history and gets a full check.
void BM_QueryAsOf_MidChurn(benchmark::State& state) {
  EvaluateQueries(state, GetFixture()->mid_churn_clock);
}
BENCHMARK(BM_QueryAsOf_MidChurn);

// As-of at the pre-churn clock: every contract resolves from the deepest
// history version (the original registrations), each checked in full.
void BM_QueryAsOf_PreChurn(benchmark::State& state) {
  EvaluateQueries(state, GetFixture()->pre_churn_clock);
}
BENCHMARK(BM_QueryAsOf_PreChurn);

}  // namespace

// Micro-benchmarks for the permission core (Ablation A3): Algorithm 2
// (nested DFS) with and without the seeds optimization vs. the SCC product
// checker, on the paper's running example and on generated contracts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/permission.h"
#include "ltl/parser.h"
#include "translate/cache.h"
#include "translate/ltl_to_ba.h"
#include "workload/generator.h"

namespace {

using namespace ctdb;

struct Fixture {
  Vocabulary vocab;
  ltl::FormulaFactory factory;
  automata::Buchi contract;
  Bitset contract_events;
  Bitset seeds;
  automata::Buchi query;

  Fixture(const std::string& contract_text, const std::string& query_text) {
    auto cf = ltl::Parse(contract_text, &factory, &vocab);
    auto qf = ltl::Parse(query_text, &factory, &vocab);
    contract = std::move(*translate::LtlToBuchi(*cf, &factory));
    query = std::move(*translate::LtlToBuchi(*qf, &factory));
    (*cf)->CollectEvents(&contract_events);
    seeds = core::ComputeSeedStates(contract);
  }
};

Fixture* TicketFixture() {
  static Fixture* fixture = new Fixture(
      "G(purchase -> !use & !missedFlight & !refund & !dateChange) &"
      "G(use -> !purchase & !missedFlight & !refund & !dateChange) &"
      "G(missedFlight -> !purchase & !use & !refund & !dateChange) &"
      "G(refund -> !purchase & !use & !missedFlight & !dateChange) &"
      "G(dateChange -> !purchase & !use & !missedFlight & !refund) &"
      "G(purchase -> X(!F purchase)) &"
      "(purchase B (use | missedFlight | refund | dateChange)) &"
      "G((missedFlight -> !F use) W dateChange) &"
      "G(refund -> X(!F(use | missedFlight | refund | dateChange))) &"
      "G(use -> X(!F(use | missedFlight | refund | dateChange))) &"
      "G(dateChange -> !F refund)",
      "F(missedFlight & F refund)");
  return fixture;
}

Fixture* GeneratedFixture() {
  static Fixture* fixture = [] {
    Vocabulary vocab;
    ltl::FormulaFactory factory;
    workload::GeneratorOptions options;
    options.properties = 5;
    workload::SpecGenerator contracts(options, 0xBE11C4, &vocab, &factory);
    options.properties = 2;
    workload::SpecGenerator queries(options, 0xBE11C5, &vocab, &factory);
    auto c = contracts.Next();
    auto q = queries.Next();
    auto* f = new Fixture("true", "true");
    f->vocab = vocab;
    f->contract = std::move(c->automaton);
    f->query = std::move(q->automaton);
    f->contract_events = Bitset();
    c->formula->CollectEvents(&f->contract_events);
    f->seeds = core::ComputeSeedStates(f->contract);
    return f;
  }();
  return fixture;
}

void RunPermission(benchmark::State& state, Fixture* fixture,
                   core::PermissionAlgorithm algorithm, bool use_seeds) {
  core::PermissionOptions options;
  options.algorithm = algorithm;
  options.use_seeds = use_seeds;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Permits(
        fixture->contract, fixture->contract_events, fixture->query, options,
        use_seeds ? &fixture->seeds : nullptr));
  }
  state.SetLabel(std::to_string(fixture->contract.StateCount()) + "s contract");
}

void BM_Ticket_NestedDfs_Seeds(benchmark::State& state) {
  RunPermission(state, TicketFixture(), core::PermissionAlgorithm::kNestedDfs,
                true);
}
void BM_Ticket_NestedDfs_NoSeeds(benchmark::State& state) {
  RunPermission(state, TicketFixture(), core::PermissionAlgorithm::kNestedDfs,
                false);
}
void BM_Ticket_Scc(benchmark::State& state) {
  RunPermission(state, TicketFixture(), core::PermissionAlgorithm::kScc,
                false);
}
void BM_Generated_NestedDfs_Seeds(benchmark::State& state) {
  RunPermission(state, GeneratedFixture(),
                core::PermissionAlgorithm::kNestedDfs, true);
}
void BM_Generated_NestedDfs_NoSeeds(benchmark::State& state) {
  RunPermission(state, GeneratedFixture(),
                core::PermissionAlgorithm::kNestedDfs, false);
}
void BM_Generated_Scc(benchmark::State& state) {
  RunPermission(state, GeneratedFixture(), core::PermissionAlgorithm::kScc,
                false);
}

BENCHMARK(BM_Ticket_NestedDfs_Seeds);
BENCHMARK(BM_Ticket_NestedDfs_NoSeeds);
BENCHMARK(BM_Ticket_Scc);
BENCHMARK(BM_Generated_NestedDfs_Seeds);
BENCHMARK(BM_Generated_NestedDfs_NoSeeds);
BENCHMARK(BM_Generated_Scc);

/// One end-to-end universe per translation-cache capacity: the
/// repeated-query workload below cycles a fixed query set against it, the
/// regime the cache is built for (same structures queried again and again).
bench::Universe* CacheUniverse(size_t capacity) {
  static auto* universes = new std::map<size_t, bench::Universe*>();
  auto it = universes->find(capacity);
  if (it == universes->end()) {
    const double scale = bench::Scale();
    broker::DatabaseOptions options;
    options.translation_cache_capacity = capacity;
    const size_t contracts =
        std::max<size_t>(16, static_cast<size_t>(200 * scale));
    const size_t queries =
        std::max<size_t>(4, static_cast<size_t>(40 * scale));
    it = universes
             ->emplace(capacity, new bench::Universe(bench::BuildUniverse(
                                     contracts, 3, queries, options)))
             .first;
  }
  return it->second;
}

/// Repeated-query throughput through the whole broker read path
/// (translate → prefilter → permission). CacheOn vs CacheOff isolates the
/// translation cache: identical dataset, queries and checker, only
/// DatabaseOptions::translation_cache_capacity differs. CI's perf-smoke job
/// gates on the CacheOff/CacheOn time ratio and on cache_hit_rate > 0.
void RunRepeatedQueries(benchmark::State& state, size_t capacity) {
  bench::Universe* universe = CacheUniverse(capacity);
  std::vector<std::string> queries;
  for (const bench::QuerySet& set : universe->query_sets) {
    queries.insert(queries.end(), set.queries.begin(), set.queries.end());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = universe->db->Query(queries[i % queries.size()]);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  const translate::TranslationCacheStats stats =
      universe->db->TranslationCacheStats();
  const double probes = static_cast<double>(stats.hits + stats.misses);
  state.counters["cache_hit_rate"] =
      probes > 0 ? static_cast<double>(stats.hits) / probes : 0.0;
}

void BM_RepeatedQuery_CacheOn(benchmark::State& state) {
  RunRepeatedQueries(state, 256);
}
void BM_RepeatedQuery_CacheOff(benchmark::State& state) {
  RunRepeatedQueries(state, 0);
}
BENCHMARK(BM_RepeatedQuery_CacheOn);
BENCHMARK(BM_RepeatedQuery_CacheOff);

}  // namespace

// Streaming-monitor benchmarks (DESIGN.md §15): what incremental automaton
// stepping costs per appended event, what the two layers of batching buy,
// and what opening a stream costs. Four questions on one generated universe
// of event-pattern contracts:
//
//  * headline throughput — BM_StreamAppend_Matched drives batches drawn
//    from the contracts' own vocabulary through a monitor session
//    (items/sec = events/sec; the acceptance bar is ≥ 1M single-threaded);
//  * the naive ablation — BM_StreamAppend_Naive replays the identical
//    workload through a deliberately naive stepper (std::set state sets,
//    per-transition label evaluation, no freezing, no silent fast path),
//    pricing exactly what the bitset machinery buys;
//  * alphabet pruning — BM_StreamAppend_Mismatched streams events from a
//    vocabulary no contract cites with pruning on vs. off; the `stepped`
//    and `pruned` counters show the per-contract work collapsing to the
//    silent fixpoint, and the time ratio is the pruning speedup;
//  * open cost — BM_StreamOpen opens and destroys a session over every
//    contract once their shared monitors are built (items/sec =
//    sessions/sec).
//
// The append benches open a fresh session and destroy the last one outside
// the timed region every iteration, so every measurement starts from the
// initial state set — a long-lived session freezes most contracts
// (violated is absorbing) and would mostly measure the frozen skip — and
// prices stepping alone.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/run.h"
#include "bench_common.h"
#include "monitor/session.h"
#include "testing/reference.h"
#include "workload/events.h"

namespace {

using namespace ctdb;
using ctdb::testing::NaiveStepper;

constexpr size_t kBatchLen = 256;     ///< instants per Append call
constexpr size_t kBatchesPerIter = 4; ///< Append calls per timed iteration
constexpr size_t kBatchPool = 32;     ///< distinct pregenerated batches

struct MonitorFixture {
  std::unique_ptr<broker::ContractDatabase> db;
  std::shared_ptr<const broker::DatabaseSnapshot> snapshot;
  std::vector<monitor::EventBatch> matched;     ///< contracts' vocabulary
  std::vector<monitor::EventBatch> mismatched;  ///< vocabulary nobody cites

  MonitorFixture() {
    const double scale = bench::Scale();
    const size_t contracts =
        std::max<size_t>(16, static_cast<size_t>(320 * scale));
    db = std::make_unique<broker::ContractDatabase>();
    workload::GeneratorOptions gen;
    gen.vocabulary_size = 20;
    gen.properties = 1;
    workload::EventSpecGenerator specs(gen, bench::DefaultSeed(),
                                       db->vocabulary(), db->factory());
    for (size_t c = 0; c < contracts; ++c) {
      auto spec = specs.Next();
      if (!spec.ok()) abort();
      if (!db->Register("m" + std::to_string(c), spec->text).ok()) abort();
    }
    snapshot = db->Snapshot();

    workload::TraceOptions trace;
    trace.vocabulary_size = 20;
    workload::TraceGenerator p_events(trace, bench::DefaultSeed() ^ 0x5712);
    trace.prefix = "z";  // never interned: every instant is contract-silent
    workload::TraceGenerator z_events(trace, bench::DefaultSeed() ^ 0x5713);
    for (size_t i = 0; i < kBatchPool; ++i) {
      matched.push_back(p_events.NextBatch(kBatchLen));
      mismatched.push_back(z_events.NextBatch(kBatchLen));
    }
  }
};

MonitorFixture* GetFixture() {
  static MonitorFixture* fixture = new MonitorFixture();
  return fixture;
}

void RunSession(benchmark::State& state,
                const std::vector<monitor::EventBatch>& batches, bool prune) {
  MonitorFixture* f = GetFixture();
  monitor::StreamOptions options;
  options.prune = prune;
  uint64_t stepped = 0, pruned = 0;
  size_t i = 0;
  std::unique_ptr<monitor::StreamSession> session;
  for (auto _ : state) {
    state.PauseTiming();
    session.reset();
    auto opened = monitor::StreamSession::Open(f->snapshot, options);
    if (!opened.ok()) abort();
    session = std::move(*opened);
    state.ResumeTiming();
    for (size_t b = 0; b < kBatchesPerIter; ++b) {
      const monitor::StreamAppendResult r =
          session->Append(batches[i++ % kBatchPool]);
      stepped += r.stepped;
      pruned += r.pruned;
      benchmark::DoNotOptimize(r.deltas.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kBatchesPerIter * kBatchLen);
  state.counters["tracked"] = static_cast<double>(f->snapshot->size());
  state.counters["stepped"] =
      benchmark::Counter(static_cast<double>(stepped), benchmark::Counter::kAvgIterations);
  state.counters["pruned"] =
      benchmark::Counter(static_cast<double>(pruned), benchmark::Counter::kAvgIterations);
}

/// Headline: batched incremental stepping on in-vocabulary traffic.
void BM_StreamAppend_Matched(benchmark::State& state) {
  RunSession(state, GetFixture()->matched, /*prune=*/true);
}
BENCHMARK(BM_StreamAppend_Matched);

/// Pruning on a stream whose alphabet no contract cites: every stepper
/// rides the silent fixpoint, so almost every contract×event is `pruned`.
void BM_StreamAppend_Mismatched(benchmark::State& state) {
  RunSession(state, GetFixture()->mismatched, /*prune=*/true);
}
BENCHMARK(BM_StreamAppend_Mismatched);

/// The same mismatched stream with pruning disabled — the ablation bar for
/// "alphabet pruning measurably reduces stepped contracts".
void BM_StreamAppend_MismatchedNoPrune(benchmark::State& state) {
  RunSession(state, GetFixture()->mismatched, /*prune=*/false);
}
BENCHMARK(BM_StreamAppend_MismatchedNoPrune);

/// The matched stream through testing::NaiveStepper, the oracle the monitor
/// differential compares against, here as the performance ablation.
void BM_StreamAppend_Naive(benchmark::State& state) {
  MonitorFixture* f = GetFixture();
  // Resolve the matched batches to snapshots once; the naive loop should
  // pay for stepping, not for name lookups the session also amortizes.
  const Vocabulary& vocab = f->snapshot->vocabulary();
  std::vector<std::vector<Snapshot>> batches;
  for (const monitor::EventBatch& batch : f->matched) {
    std::vector<Snapshot> resolved;
    for (const std::vector<std::string>& instant : batch) {
      Snapshot s(vocab.size());
      for (const std::string& name : instant) {
        if (auto id = vocab.Find(name); id.ok()) s.Set(*id);
      }
      resolved.push_back(std::move(s));
    }
    batches.push_back(std::move(resolved));
  }
  std::vector<const broker::Contract*> contracts;
  for (uint32_t id = 0; id < f->snapshot->slot_count(); ++id) {
    if (const broker::Contract* c = f->snapshot->contract_or_null(id)) {
      contracts.push_back(c);
    }
  }

  size_t i = 0;
  std::vector<NaiveStepper> steppers;
  for (auto _ : state) {
    state.PauseTiming();
    steppers.clear();
    for (const broker::Contract* c : contracts) steppers.emplace_back(c);
    state.ResumeTiming();
    for (size_t b = 0; b < kBatchesPerIter; ++b) {
      for (const Snapshot& s : batches[i++ % kBatchPool]) {
        for (NaiveStepper& stepper : steppers) stepper.Step(s);
      }
    }
    for (NaiveStepper& stepper : steppers) {
      auto verdict = stepper.Verdict();
      benchmark::DoNotOptimize(verdict);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kBatchesPerIter * kBatchLen);
  state.counters["tracked"] = static_cast<double>(contracts.size());
}
BENCHMARK(BM_StreamAppend_Naive);

/// Open and destroy a session pinning every contract, after one untimed
/// open has built their shared monitors.
void BM_StreamOpen(benchmark::State& state) {
  MonitorFixture* f = GetFixture();
  if (!monitor::StreamSession::Open(f->snapshot, {}).ok()) abort();
  for (auto _ : state) {
    auto session = monitor::StreamSession::Open(f->snapshot, {});
    if (!session.ok()) abort();
    benchmark::DoNotOptimize(session->get());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["tracked"] = static_cast<double>(f->snapshot->size());
}
BENCHMARK(BM_StreamOpen);

}  // namespace

// Executor benchmarks: per-call thread spawning vs. the shared
// single-queue pool, and per-call Query vs. the batched QueryBatch API.
//
// Three layers are measured on one generated universe:
//  * dispatch cost alone — spawning N std::threads per call (what the
//    broker used to do) against ThreadPool::ParallelFor on a warm pool;
//  * query throughput — serial Query, pooled Query (threads = N), and
//    QueryBatch over the whole workload (amortizing dispatch and sharing
//    quotient caches across queries);
//  * batch scaling across thread counts.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "util/thread_pool.h"

namespace {

using namespace ctdb;

bench::Universe* SharedUniverse() {
  static bench::Universe* universe = [] {
    const double scale = bench::Scale();
    const size_t contracts =
        std::max<size_t>(16, static_cast<size_t>(400 * scale));
    const size_t queries = std::max<size_t>(6, static_cast<size_t>(60 * scale));
    auto* u = new bench::Universe(
        bench::BuildUniverse(contracts, 3, queries));
    return u;
  }();
  return universe;
}

std::vector<std::string> AllQueries() {
  std::vector<std::string> queries;
  for (const bench::QuerySet& set : SharedUniverse()->query_sets) {
    queries.insert(queries.end(), set.queries.begin(), set.queries.end());
  }
  return queries;
}

constexpr size_t kDispatchTasks = 64;

// The old broker behavior: spawn + join raw threads on every call.
void BM_Dispatch_PerCallThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  std::atomic<size_t> sink{0};
  for (auto _ : state) {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < kDispatchTasks; i += threads) {
          sink.fetch_add(i, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * kDispatchTasks);
}
BENCHMARK(BM_Dispatch_PerCallThreads)->Arg(2)->Arg(4);

// The new behavior: one warm pool reused across calls.
void BM_Dispatch_Pooled(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  util::ThreadPool pool(threads - 1);  // the caller participates
  std::atomic<size_t> sink{0};
  for (auto _ : state) {
    const Status status =
        pool.ParallelFor(0, kDispatchTasks, [&](size_t i) -> Status {
          sink.fetch_add(i, std::memory_order_relaxed);
          return Status::OK();
        });
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * kDispatchTasks);
}
BENCHMARK(BM_Dispatch_Pooled)->Arg(2)->Arg(4);

void EvaluatePerCall(benchmark::State& state, size_t threads) {
  bench::Universe* universe = SharedUniverse();
  const std::vector<std::string> queries = AllQueries();
  broker::QueryOptions options;
  options.threads = threads;
  for (auto _ : state) {
    for (const std::string& q : queries) {
      auto r = universe->db->Query(q, options);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}

void BM_Query_Serial(benchmark::State& state) { EvaluatePerCall(state, 1); }
BENCHMARK(BM_Query_Serial);

void BM_Query_Pooled(benchmark::State& state) {
  EvaluatePerCall(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Query_Pooled)->Arg(2)->Arg(4);

void BM_QueryBatch(benchmark::State& state) {
  bench::Universe* universe = SharedUniverse();
  const std::vector<std::string> queries = AllQueries();
  broker::QueryOptions options;
  options.threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto r = universe->db->QueryBatch(queries, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_QueryBatch)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

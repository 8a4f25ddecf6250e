// Micro-benchmark for the registration-time projection precompute
// (§5.2–5.3): a serial ContractProjections::Precompute of every contract in a
// fixed set of generated 5-property contracts — the first ten of
// bench_index_build's corpus (generator seed 0x1DB), whose statistics
// tests/testdata/projection_stats.golden pins.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "projection/store.h"
#include "workload/generator.h"

namespace {

using namespace ctdb;

constexpr size_t kContracts = 10;

const std::vector<automata::Buchi>& Contracts() {
  static const std::vector<automata::Buchi>* contracts = [] {
    auto* out = new std::vector<automata::Buchi>;
    Vocabulary vocab;
    ltl::FormulaFactory factory;
    workload::GeneratorOptions options;
    options.properties = 5;
    workload::SpecGenerator gen(options, 0x1DB, &vocab, &factory);
    for (size_t i = 0; i < kContracts; ++i) {
      auto spec = gen.Next();
      if (!spec.ok()) std::abort();
      out->push_back(std::move(spec->automaton));
    }
    return out;
  }();
  return *contracts;
}

void BM_ProjectionPrecompute(benchmark::State& state) {
  const std::vector<automata::Buchi>& contracts = Contracts();
  size_t subsets = 0;
  for (auto _ : state) {
    // Precompute takes its automaton by value; the copies stay untimed.
    state.PauseTiming();
    std::vector<automata::Buchi> copies = contracts;
    state.ResumeTiming();
    for (automata::Buchi& ba : copies) {
      const projection::ContractProjections store =
          projection::ContractProjections::Precompute(std::move(ba));
      subsets += store.stats().subsets_computed;
      benchmark::DoNotOptimize(&store);
    }
  }
  state.counters["subsets_per_iter"] = benchmark::Counter(
      static_cast<double>(subsets) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ProjectionPrecompute);

}  // namespace

// Micro-benchmarks for the prefiltering index: insertion, S(λ) lookups at
// and above the depth cap, pruning-condition extraction (2- and 3-property
// queries) and full condition evaluation.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/prefilter.h"
#include "index/pruning.h"
#include "workload/generator.h"

namespace {

using namespace ctdb;

struct IndexFixture {
  Vocabulary vocab;
  ltl::FormulaFactory factory;
  index::PrefilterIndex index;
  std::vector<workload::GeneratedSpec> contracts;
  std::vector<workload::GeneratedSpec> queries;
  std::vector<workload::GeneratedSpec> queries_3prop;

  IndexFixture() {
    workload::GeneratorOptions options;
    options.properties = 5;
    workload::SpecGenerator gen(options, 0x1DEC5, &vocab, &factory);
    for (uint32_t i = 0; i < 100; ++i) {
      auto spec = gen.Next();
      Bitset events;
      spec->formula->CollectEvents(&events);
      index.Insert(i, spec->automaton, events);
      contracts.push_back(std::move(*spec));
    }
    options.properties = 2;
    workload::SpecGenerator qgen(options, 0x1DEC6, &vocab, &factory);
    for (int i = 0; i < 32; ++i) {
      auto spec = qgen.Next();
      queries.push_back(std::move(*spec));
    }
    options.properties = 3;
    workload::SpecGenerator q3gen(options, 0x1DEC7, &vocab, &factory);
    for (int i = 0; i < 32; ++i) {
      auto spec = q3gen.Next();
      queries_3prop.push_back(std::move(*spec));
    }
  }
};

IndexFixture* GetFixture() {
  static IndexFixture* fixture = new IndexFixture();
  return fixture;
}

void BM_Insert(benchmark::State& state) {
  IndexFixture* f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    index::PrefilterIndex fresh;
    const auto& spec = f->contracts[i % f->contracts.size()];
    Bitset events;
    spec.formula->CollectEvents(&events);
    fresh.Insert(0, spec.automaton, events);
    benchmark::DoNotOptimize(fresh);
    ++i;
  }
}
BENCHMARK(BM_Insert);

void BM_LookupSingleLiteral(benchmark::State& state) {
  IndexFixture* f = GetFixture();
  Label label;
  label.AddPositive(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->index.Lookup(label));
  }
}
BENCHMARK(BM_LookupSingleLiteral);

void BM_LookupBeyondDepth(benchmark::State& state) {
  IndexFixture* f = GetFixture();
  Label label;  // 4 literals > default depth 2: S'(λ) intersection path.
  label.AddPositive(1);
  label.AddNegative(2);
  label.AddPositive(5);
  label.AddNegative(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->index.Lookup(label));
  }
}
BENCHMARK(BM_LookupBeyondDepth);

void BM_ExtractPruningCondition(benchmark::State& state) {
  IndexFixture* f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto& query = f->queries[i % f->queries.size()];
    benchmark::DoNotOptimize(
        index::ExtractPruningCondition(query.automaton));
    ++i;
  }
}
BENCHMARK(BM_ExtractPruningCondition);

// One pass over 32 three-property queries: the shape whose automata reach
// thousands of transitions and whose conditions reach thousands of nodes.
void BM_ExtractPruningCondition_3Prop(benchmark::State& state) {
  IndexFixture* f = GetFixture();
  for (auto _ : state) {
    for (const auto& query : f->queries_3prop) {
      benchmark::DoNotOptimize(
          index::ExtractPruningCondition(query.automaton));
    }
  }
}
BENCHMARK(BM_ExtractPruningCondition_3Prop);

void BM_ConditionEvaluate(benchmark::State& state) {
  IndexFixture* f = GetFixture();
  std::vector<index::Condition> conditions;
  for (const auto& query : f->queries) {
    conditions.push_back(index::ExtractPruningCondition(query.automaton));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conditions[i % conditions.size()].Evaluate(f->index));
    ++i;
  }
}
BENCHMARK(BM_ConditionEvaluate);

}  // namespace

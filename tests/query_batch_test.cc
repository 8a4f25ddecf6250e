// QueryBatch / pooled-Query equivalence: across the workload generator's
// Dwyer-pattern specifications (§7.2), batched and pooled evaluation must
// return exactly the match sets of the single-threaded serial prototype.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "automata/word.h"
#include "broker/database.h"
#include "ltl/evaluator.h"
#include "ltl/parser.h"
#include "workload/generator.h"

namespace ctdb::broker {
namespace {

/// A database of generated Dwyer-pattern contracts plus a mixed query
/// workload (1/2/3 patterns per query, as Table 2's query levels).
struct GeneratedWorkload {
  std::unique_ptr<ContractDatabase> db;
  std::vector<std::string> queries;
};

class QueryBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    BuildWorkload(options, /*contracts=*/18, /*queries_per_level=*/6);
    if (HasFatalFailure()) return;
  }

  GeneratedWorkload workload_;

  void BuildWorkload(const DatabaseOptions& options, size_t contracts,
                     size_t queries_per_level) {
    workload_.db = std::make_unique<ContractDatabase>(options);
    workload::GeneratorOptions gen;
    gen.vocabulary_size = 12;
    gen.properties = 3;
    workload::SpecGenerator contracts_gen(gen, 0xC0FFEE,
                                          workload_.db->vocabulary(),
                                          workload_.db->factory());
    for (size_t i = 0; i < contracts; ++i) {
      auto spec = contracts_gen.Next();
      ASSERT_TRUE(spec.ok()) << spec.status();
      auto id = workload_.db->RegisterFormula("c" + std::to_string(i),
                                              spec->formula, spec->text);
      ASSERT_TRUE(id.ok()) << id.status();
    }
    for (size_t patterns : {1u, 2u, 3u}) {
      workload::GeneratorOptions qgen;
      qgen.vocabulary_size = 12;
      qgen.properties = patterns;
      workload::SpecGenerator queries_gen(qgen, 0xBEEF00 + patterns,
                                          workload_.db->vocabulary(),
                                          workload_.db->factory());
      for (size_t i = 0; i < queries_per_level; ++i) {
        auto spec = queries_gen.Next();
        ASSERT_TRUE(spec.ok()) << spec.status();
        workload_.queries.push_back(spec->text);
      }
    }
  }

  /// Serial ground truth: one Query call per text, threads forced to 1.
  std::vector<QueryResult> SerialResults(const QueryOptions& base) {
    QueryOptions serial = base;
    serial.threads = 1;
    std::vector<QueryResult> results;
    for (const std::string& q : workload_.queries) {
      auto r = workload_.db->Query(q, serial);
      EXPECT_TRUE(r.ok()) << q << ": " << r.status();
      results.push_back(r.ok() ? std::move(*r) : QueryResult{});
    }
    return results;
  }
};

TEST_F(QueryBatchTest, BatchSerialMatchesQuerySerial) {
  const std::vector<QueryResult> serial = SerialResults({});
  QueryOptions options;
  options.threads = 1;
  auto batch = workload_.db->QueryBatch(workload_.queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ((*batch)[i].matches, serial[i].matches)
        << workload_.queries[i];
  }
}

TEST_F(QueryBatchTest, BatchParallelMatchesQuerySerial) {
  const std::vector<QueryResult> serial = SerialResults({});
  for (size_t threads : {2u, 4u, 7u}) {
    QueryOptions options;
    options.threads = threads;
    auto batch = workload_.db->QueryBatch(workload_.queries, options);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ((*batch)[i].matches, serial[i].matches)
          << workload_.queries[i] << " threads=" << threads;
      EXPECT_TRUE(std::is_sorted((*batch)[i].matches.begin(),
                                 (*batch)[i].matches.end()));
    }
  }
}

TEST_F(QueryBatchTest, PooledQueryMatchesSerialOnGeneratedWorkload) {
  const std::vector<QueryResult> serial = SerialResults({});
  QueryOptions options;
  options.threads = 4;
  for (size_t i = 0; i < workload_.queries.size(); ++i) {
    auto r = workload_.db->Query(workload_.queries[i], options);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->matches, serial[i].matches) << workload_.queries[i];
  }
}

TEST_F(QueryBatchTest, BatchUnoptimizedScanAgreesWithOptimized) {
  // Prefilter and projections off (the §3 scan) must select the same
  // contracts, batched or not.
  QueryOptions scan;
  scan.use_prefilter = false;
  scan.use_projections = false;
  scan.threads = 3;
  const std::vector<QueryResult> serial = SerialResults({});
  auto batch = workload_.db->QueryBatch(workload_.queries, scan);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ((*batch)[i].matches, serial[i].matches)
        << workload_.queries[i];
  }
}

TEST_F(QueryBatchTest, AsOfBatchMatchesQuerySerialOverHistory) {
  // History: replace every third contract, then, past `mid`, unregister
  // every fifth and replace one more.
  ContractDatabase& db = *workload_.db;
  workload::GeneratorOptions gen;
  gen.vocabulary_size = 12;
  gen.properties = 2;
  workload::SpecGenerator specs(gen, 0xA50F, db.vocabulary(), db.factory());
  auto replace = [&](uint32_t id) {
    auto spec = specs.Next();
    ASSERT_TRUE(spec.ok()) << spec.status();
    ASSERT_TRUE(db.Replace(id, spec->text).ok());
  };
  for (uint32_t id = 0; id < 18; id += 3) replace(id);
  const uint64_t mid = db.last_sequence();
  for (uint32_t id = 1; id < 18; id += 5) ASSERT_TRUE(db.Unregister(id).ok());
  replace(2);
  if (HasFatalFailure()) return;

  for (const uint64_t as_of : {uint64_t{6}, mid, uint64_t{0}}) {
    QueryOptions serial;
    serial.as_of = as_of;
    serial.collect_witnesses = true;
    const std::vector<QueryResult> want = SerialResults(serial);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      QueryOptions options = serial;
      options.threads = threads;
      auto batch = db.QueryBatch(workload_.queries, options);
      ASSERT_TRUE(batch.ok()) << batch.status();
      ASSERT_EQ(batch->size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        const QueryResult& got = (*batch)[i];
        const std::string where = workload_.queries[i] +
                                  " as_of=" + std::to_string(as_of) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(got.matches, want[i].matches) << where;
        ASSERT_EQ(got.witnesses.size(), want[i].witnesses.size()) << where;
        for (size_t w = 0; w < got.witnesses.size(); ++w) {
          EXPECT_EQ(got.witnesses[w].prefix, want[i].witnesses[w].prefix)
              << where;
          EXPECT_EQ(got.witnesses[w].cycle, want[i].witnesses[w].cycle)
              << where;
        }
      }
    }
  }
}

TEST_F(QueryBatchTest, BatchWitnessesAreRealPermittedBehaviors) {
  QueryOptions options;
  options.threads = 4;
  options.collect_witnesses = true;
  auto batch = workload_.db->QueryBatch(workload_.queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  size_t checked = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    const QueryResult& r = (*batch)[i];
    ASSERT_EQ(r.witnesses.size(), r.matches.size());
    auto query = ltl::Parse(workload_.queries[i], workload_.db->factory(),
                            workload_.db->vocabulary());
    ASSERT_TRUE(query.ok());
    for (size_t m = 0; m < r.matches.size(); ++m) {
      const LassoWord& w = r.witnesses[m];
      if (w.cycle.empty()) continue;  // no witness extracted
      // A witness must satisfy the query…
      EXPECT_TRUE(ltl::Evaluate(*query, w)) << workload_.queries[i];
      // …and be a run of the matched contract's automaton.
      EXPECT_TRUE(automata::AcceptsWord(
          workload_.db->contract(r.matches[m]).automaton(), w));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(QueryBatchTest, BatchStatsAreFilled) {
  QueryOptions options;
  options.threads = 4;
  auto batch = workload_.db->QueryBatch(workload_.queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (const QueryResult& r : *batch) {
    EXPECT_EQ(r.stats.database_size, workload_.db->size());
    EXPECT_GT(r.stats.query_states, 0u);
    EXPECT_EQ(r.stats.matches, r.matches.size());
    EXPECT_GE(r.stats.candidates, r.stats.matches);
  }
}

TEST_F(QueryBatchTest, TotalTimeCoversSerialPhasesInBothModes) {
  // Documented invariant (database.h): `total_ms >= translate_ms +
  // prefilter_ms` in both modes. Serial total is the wall clock enclosing
  // all three phases; parallel total is defined as translate + prefilter +
  // summed permission CPU time, so the two serial phases can never exceed
  // it. Regression guard: an earlier formulation measured parallel total as
  // the batch's wall clock divided across queries, which undercut the
  // per-query phase sums.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    QueryOptions options;
    options.threads = threads;
    auto batch = workload_.db->QueryBatch(workload_.queries, options);
    ASSERT_TRUE(batch.ok()) << batch.status();
    for (size_t i = 0; i < batch->size(); ++i) {
      const QueryStats& stats = (*batch)[i].stats;
      // Timer rounding: phases and totals come from separate Timer reads,
      // so allow a microsecond-scale epsilon.
      EXPECT_GE(stats.total_ms + 1e-3,
                stats.translate_ms + stats.prefilter_ms)
          << "threads=" << threads << " query " << i << ": "
          << stats.ToString();
      EXPECT_GE(stats.total_ms + 1e-3, stats.permission_ms)
          << "threads=" << threads << " query " << i;
    }
  }
}

TEST_F(QueryBatchTest, BatchRejectsUnknownEvents) {
  auto batch = workload_.db->QueryBatch({"F p1", "F no_such_event_xyz"});
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsNotFound()) << batch.status();
  EXPECT_NE(batch.status().message().find("query 1"), std::string::npos);
}

TEST_F(QueryBatchTest, EmptyBatch) {
  auto batch = workload_.db->QueryBatch({});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_TRUE(batch->empty());
}

TEST_F(QueryBatchTest, DatabaseDefaultThreadsInherited) {
  // QueryOptions::threads == 0 inherits DatabaseOptions::threads; results
  // must stay identical to the serial prototype either way.
  const std::vector<QueryResult> serial = SerialResults({});

  DatabaseOptions parallel_db;
  parallel_db.threads = 4;
  GeneratedWorkload before = std::move(workload_);
  workload_ = GeneratedWorkload{};
  BuildWorkload(parallel_db, /*contracts=*/18, /*queries_per_level=*/6);
  ASSERT_EQ(workload_.queries, before.queries);

  auto batch = workload_.db->QueryBatch(workload_.queries);  // threads = 0
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ((*batch)[i].matches, serial[i].matches)
        << workload_.queries[i];
  }
}

}  // namespace
}  // namespace ctdb::broker

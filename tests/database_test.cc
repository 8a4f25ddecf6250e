#include "broker/database.h"

#include <gtest/gtest.h>

namespace ctdb::broker {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  QueryResult MustQuery(ContractDatabase* db, const std::string& q,
                        const QueryOptions& options = {}) {
    auto r = db->Query(q, options);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : QueryResult{};
  }
};

TEST_F(DatabaseTest, RegisterAssignsSequentialIds) {
  ContractDatabase db;
  auto a = db.Register("A", "G(p -> F q)");
  auto b = db.Register("B", "G(!p)");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.contract(0).name, "A");
  EXPECT_EQ(db.contract(1).ltl_text, "G(!p)");
}

TEST_F(DatabaseTest, RegisterRejectsBadLtl) {
  ContractDatabase db;
  EXPECT_FALSE(db.Register("bad", "G(p ->").ok());
}

TEST_F(DatabaseTest, RegistrationStatsPopulated) {
  ContractDatabase db;
  RegistrationStats stats;
  ASSERT_TRUE(db.Register("A", "G(p -> F q)", &stats).ok());
  EXPECT_GT(stats.ba_states, 0u);
  EXPECT_GT(stats.ba_transitions, 0u);
  EXPECT_GT(stats.projection_subsets, 0u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST_F(DatabaseTest, QueryRejectsUnknownEvents) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("A", "G(p -> F q)").ok());
  EXPECT_TRUE(db.Query("F unknownEvent").status().IsNotFound());
}

TEST_F(DatabaseTest, QueryFindsPermittingContracts) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("allows", "G(p -> F q)").ok());
  ASSERT_TRUE(db.Register("forbids_q", "G(!q)").ok());
  const QueryResult r = MustQuery(&db, "F q");
  EXPECT_EQ(r.matches, (std::vector<uint32_t>{0}));
  EXPECT_EQ(r.stats.matches, 1u);
  EXPECT_EQ(r.stats.database_size, 2u);
}

TEST_F(DatabaseTest, UnderspecifiedContractNotReturned) {
  // The "class upgrade" lesson of Example 4: contract citing only p can
  // never permit a query about q.
  ContractDatabase db;
  ASSERT_TRUE(db.Register("only_p", "G F p").ok());
  ASSERT_TRUE(db.InternEvent("q").ok());
  const QueryResult r = MustQuery(&db, "F q");
  EXPECT_TRUE(r.matches.empty());
}

TEST_F(DatabaseTest, AllOptimizationCombinationsAgree) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  ASSERT_TRUE(db.Register("b", "G(!q) & F p").ok());
  ASSERT_TRUE(db.Register("c", "G(p -> X(!F p))").ok());
  ASSERT_TRUE(db.Register("d", "(!p U q) & G F p").ok());

  const char* queries[] = {"F q", "F(p & F q)", "G !p", "F p & F q",
                           "G F p", "p U q"};
  for (const char* q : queries) {
    QueryOptions optimized;
    QueryOptions no_prefilter;
    no_prefilter.use_prefilter = false;
    QueryOptions no_projections;
    no_projections.use_projections = false;
    QueryOptions unoptimized;
    unoptimized.use_prefilter = false;
    unoptimized.use_projections = false;
    QueryOptions scc;
    scc.permission.algorithm = core::PermissionAlgorithm::kScc;

    const auto r1 = MustQuery(&db, q, optimized);
    const auto r2 = MustQuery(&db, q, no_prefilter);
    const auto r3 = MustQuery(&db, q, no_projections);
    const auto r4 = MustQuery(&db, q, unoptimized);
    const auto r5 = MustQuery(&db, q, scc);
    EXPECT_EQ(r1.matches, r2.matches) << q;
    EXPECT_EQ(r1.matches, r3.matches) << q;
    EXPECT_EQ(r1.matches, r4.matches) << q;
    EXPECT_EQ(r1.matches, r5.matches) << q;
    EXPECT_LE(r1.stats.candidates, r4.stats.candidates) << q;
  }
}

TEST_F(DatabaseTest, PrefilterReducesCandidates) {
  ContractDatabase db;
  // Ten contracts citing disjoint event pairs.
  for (int i = 0; i < 10; ++i) {
    const std::string a = "ev" + std::to_string(2 * i);
    const std::string b = "ev" + std::to_string(2 * i + 1);
    ASSERT_TRUE(db.Register("c" + std::to_string(i),
                            "G(" + a + " -> F " + b + ")")
                    .ok());
  }
  const QueryResult r = MustQuery(&db, "F ev1");
  EXPECT_EQ(r.stats.candidates, 1u);
  EXPECT_EQ(r.matches, (std::vector<uint32_t>{0}));
}

TEST_F(DatabaseTest, UnsatisfiableQueryReturnsNothingFast) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  const QueryResult r = MustQuery(&db, "q & !q");
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.stats.candidates, 0u);  // pruning condition is FALSE
}

TEST_F(DatabaseTest, DisabledIndexStructuresStillCorrect) {
  DatabaseOptions options;
  options.build_prefilter = false;
  options.build_projections = false;
  ContractDatabase db(options);
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  const QueryResult r = MustQuery(&db, "F q");
  EXPECT_EQ(r.matches, (std::vector<uint32_t>{0}));
  // With the prefilter disabled, every contract is a candidate.
  EXPECT_EQ(r.stats.candidates, 1u);
}

// Projection masks are one 64-bit word: a contract citing more events must
// answer as if it had no projections, not project onto a wrapped mask.
TEST_F(DatabaseTest, ContractCitingMoreThan64EventsMatchesWithoutProjections) {
  const std::string query = "F(e8 & X e8) & F e1 & F e2 & F e3 & F e4";
  for (int events : {64, 65, 66, 70}) {
    std::string contract = "(e0";
    for (int e = 1; e < events; ++e) contract += " | e" + std::to_string(e);
    contract += ") & G(e8 -> X !e8)";
    std::vector<uint32_t> matches[2];
    for (bool projections : {false, true}) {
      DatabaseOptions options;
      options.build_projections = projections;
      ContractDatabase db(options);
      ASSERT_TRUE(db.Register("wide", contract).ok());
      matches[projections] = MustQuery(&db, query).matches;
    }
    EXPECT_EQ(matches[true], matches[false]) << events << " events";
    EXPECT_TRUE(matches[false].empty()) << events << " events";
  }
}

// Requirement iii of §1: publishing a contract with a different policy (and
// new events) must not force revising previously published contracts — old
// contracts keep answering exactly as before.
TEST_F(DatabaseTest, VocabularyEvolutionDoesNotDisturbOldContracts) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("old", "G(p -> F q)").ok());
  auto before = MustQuery(&db, "F q");
  ASSERT_EQ(before.matches, (std::vector<uint32_t>{0}));

  // A newcomer introduces two fresh events.
  ASSERT_TRUE(db.Register("new", "G(shiny -> F sparkly) & F q").ok());

  // The old contract's answers are unchanged...
  auto after = MustQuery(&db, "F q");
  EXPECT_EQ(after.matches, (std::vector<uint32_t>{0, 1}));
  auto old_only = MustQuery(&db, "G(p -> F q) & F p");
  EXPECT_TRUE(std::find(old_only.matches.begin(), old_only.matches.end(), 0u)
              != old_only.matches.end());
  // ...and it never matches queries about events it does not cite
  // (Definition 1(b) — no free visibility from underspecification).
  auto shiny = MustQuery(&db, "F sparkly");
  EXPECT_EQ(shiny.matches, (std::vector<uint32_t>{1}));
}

TEST_F(DatabaseTest, MemoryUsageReporting) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  EXPECT_GT(db.PrefilterMemoryUsage(), 0u);
  EXPECT_GT(db.ContractMemoryUsage(), 0u);
  EXPECT_GT(db.ProjectionMemoryUsage(), 0u);
}

TEST_F(DatabaseTest, QueryStatsTimingsPopulated) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  const QueryResult r = MustQuery(&db, "F q");
  EXPECT_GE(r.stats.total_ms, 0.0);
  EXPECT_GT(r.stats.query_states, 0u);
  EXPECT_FALSE(r.stats.ToString().empty());
}

TEST_F(DatabaseTest, ParallelEvaluationMatchesSequential) {
  ContractDatabase db;
  for (int i = 0; i < 24; ++i) {
    const std::string a = "pe" + std::to_string(i % 6);
    const std::string b = "pe" + std::to_string((i + 1) % 6);
    ASSERT_TRUE(db.Register("c" + std::to_string(i),
                            "G(" + a + " -> F " + b + ") & F " + a)
                    .ok());
  }
  for (const char* q : {"F pe1", "F(pe0 & F pe1)", "G !pe2", "F pe3 & F pe4"}) {
    QueryOptions sequential;
    auto r1 = MustQuery(&db, q, sequential);
    for (size_t threads : {2u, 4u, 7u}) {
      QueryOptions parallel;
      parallel.threads = threads;
      parallel.collect_witnesses = true;
      auto r2 = MustQuery(&db, q, parallel);
      EXPECT_EQ(r1.matches, r2.matches) << q << " threads=" << threads;
      EXPECT_EQ(r2.witnesses.size(), r2.matches.size());
      // Matches stay sorted by contract id (chunk-order merge).
      EXPECT_TRUE(std::is_sorted(r2.matches.begin(), r2.matches.end()));
    }
  }
}

TEST_F(DatabaseTest, RegisterBatchMatchesSequentialRegistration) {
  std::vector<ContractDatabase::BatchEntry> entries;
  for (int i = 0; i < 10; ++i) {
    const std::string a = "bt" + std::to_string(i % 4);
    const std::string b = "bt" + std::to_string((i + 1) % 4);
    entries.push_back({"c" + std::to_string(i),
                       "G(" + a + " -> F " + b + ") & F " + a});
  }

  ContractDatabase sequential;
  for (const auto& e : entries) {
    ASSERT_TRUE(sequential.Register(e.name, e.ltl_text).ok());
  }
  for (size_t threads : {1u, 3u, 8u}) {
    ContractDatabase batched;
    auto ids = batched.RegisterBatch(entries, threads);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ASSERT_EQ(ids->size(), entries.size());
    EXPECT_EQ(batched.size(), sequential.size());
    for (const char* q : {"F bt1", "F(bt0 & F bt2)", "G !bt3"}) {
      auto r1 = sequential.Query(q);
      auto r2 = batched.Query(q);
      ASSERT_TRUE(r1.ok());
      ASSERT_TRUE(r2.ok());
      EXPECT_EQ(r1->matches, r2->matches) << q << " threads=" << threads;
      EXPECT_EQ(r1->stats.candidates, r2->stats.candidates) << q;
    }
  }
}

TEST_F(DatabaseTest, RegisterBatchIsAtomicOnError) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("keep", "G(p -> F q)").ok());
  std::vector<ContractDatabase::BatchEntry> entries = {
      {"good", "F p"},
      {"bad", "G(p ->"},  // parse error
  };
  EXPECT_FALSE(db.RegisterBatch(entries, 2).ok());
  EXPECT_EQ(db.size(), 1u);  // nothing from the failed batch
}

TEST_F(DatabaseTest, ZeroThreadsInheritsDatabaseDefault) {
  // QueryOptions::threads == 0 inherits DatabaseOptions::threads: serial on
  // a default database, pooled on one configured for concurrency — with
  // identical matches either way.
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  QueryOptions options;
  options.threads = 0;
  const QueryResult r = MustQuery(&db, "F q", options);
  EXPECT_EQ(r.matches, (std::vector<uint32_t>{0}));

  DatabaseOptions pooled;
  pooled.threads = 3;
  ContractDatabase db_pooled(pooled);
  ASSERT_TRUE(db_pooled.Register("a", "G(p -> F q)").ok());
  ASSERT_TRUE(db_pooled.Register("b", "G(p -> F r) & F r").ok());
  const QueryResult rp = MustQuery(&db_pooled, "F q", options);
  EXPECT_EQ(rp.matches, (std::vector<uint32_t>{0}));
}

TEST_F(DatabaseTest, RegisterFormulaDirectly) {
  ContractDatabase db;
  auto* fac = db.factory();
  auto p = db.vocabulary()->Intern("p");
  ASSERT_TRUE(p.ok());
  const ltl::Formula* spec = fac->Globally(fac->Prop(*p));
  auto id = db.RegisterFormula("direct", spec);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(db.contract(*id).ltl_text, "G p");
  const QueryResult r = MustQuery(&db, "G p");
  EXPECT_EQ(r.matches, (std::vector<uint32_t>{0}));
}

TEST_F(DatabaseTest, SnapshotIsStableAcrossRegistrations) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  const std::shared_ptr<const DatabaseSnapshot> snap = db.Snapshot();
  ASSERT_EQ(snap->size(), 1u);

  ASSERT_TRUE(db.Register("b", "G F q").ok());
  // The held snapshot is frozen: it neither sees the new contract nor the
  // database's new snapshot.
  EXPECT_EQ(snap->size(), 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_NE(snap.get(), db.Snapshot().get());

  auto old_r = snap->Query("F q");
  ASSERT_TRUE(old_r.ok());
  EXPECT_EQ(old_r->matches, (std::vector<uint32_t>{0}));
  const QueryResult new_r = MustQuery(&db, "F q");
  EXPECT_EQ(new_r.matches, (std::vector<uint32_t>{0, 1}));
}

TEST_F(DatabaseTest, RejectedQueryLeavesSnapshotUntouched) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  const std::shared_ptr<const DatabaseSnapshot> before = db.Snapshot();
  EXPECT_TRUE(db.Query("F unknownEvent").status().IsNotFound());
  EXPECT_TRUE(db.QueryBatch({"F q", "F unknownEvent"}).status().IsNotFound());
  // The read path publishes nothing — same snapshot object, same vocabulary.
  EXPECT_EQ(before.get(), db.Snapshot().get());
  EXPECT_FALSE(db.Snapshot()->vocabulary().Contains("unknownEvent"));
}

TEST_F(DatabaseTest, FailedRegistrationLeavesSnapshotUntouched) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  const std::shared_ptr<const DatabaseSnapshot> before = db.Snapshot();

  // Parse error.
  EXPECT_FALSE(db.Register("bad", "G(p ->").ok());
  // Validation error: the initial state is out of range.
  automata::Buchi bad_ba;
  bad_ba.SetInitial(5);
  EXPECT_FALSE(db.RegisterAutomaton("bad", "true", std::move(bad_ba),
                                    Bitset())
                   .ok());

  // Queries keep observing the exact pre-failure state.
  EXPECT_EQ(before.get(), db.Snapshot().get());
  EXPECT_EQ(db.size(), 1u);
  const QueryResult r = MustQuery(&db, "F q");
  EXPECT_EQ(r.matches, (std::vector<uint32_t>{0}));
  EXPECT_EQ(r.stats.database_size, 1u);
}

TEST_F(DatabaseTest, InternEventPublishesImmediately) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("only_p", "G F p").ok());
  const std::shared_ptr<const DatabaseSnapshot> before = db.Snapshot();
  EXPECT_TRUE(db.Query("F q").status().IsNotFound());

  auto id = db.InternEvent("q");
  ASSERT_TRUE(id.ok());
  // Idempotent: re-interning returns the same id and publishes nothing.
  const std::shared_ptr<const DatabaseSnapshot> interned = db.Snapshot();
  auto again = db.InternEvent("q");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*id, *again);
  EXPECT_EQ(interned.get(), db.Snapshot().get());

  // The new snapshot can cite q; the old one still cannot.
  const QueryResult r = MustQuery(&db, "F q");
  EXPECT_TRUE(r.matches.empty());
  EXPECT_TRUE(before->Query("F q").status().IsNotFound());
}

TEST_F(DatabaseTest, QueryIsConstAndUsableThroughConstRef) {
  ContractDatabase db;
  ASSERT_TRUE(db.Register("a", "G(p -> F q)").ok());
  const ContractDatabase& cdb = db;  // the read API is const
  auto r = cdb.Query("F q");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->matches, (std::vector<uint32_t>{0}));
  auto batch = cdb.QueryBatch({"F q", "G !p"});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 2u);
}

}  // namespace
}  // namespace ctdb::broker

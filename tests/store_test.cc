#include "projection/store.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/bisimulation.h"
#include "automata/quotient.h"
#include "automata/serialize.h"
#include "broker/database.h"
#include "core/permission.h"
#include "ltl/parser.h"
#include "projection/projection.h"
#include "testing/counter_growth.h"
#include "testing/generators.h"
#include "translate/ltl_to_ba.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace ctdb::projection {
namespace {

using automata::Buchi;

class StoreTest : public ::testing::Test {
 protected:
  Buchi BA(const std::string& text) {
    auto f = ltl::Parse(text, &fac_, &vocab_);
    EXPECT_TRUE(f.ok()) << f.status();
    auto ba = translate::LtlToBuchi(*f, &fac_);
    EXPECT_TRUE(ba.ok()) << ba.status();
    return std::move(*ba);
  }
  Vocabulary vocab_ = ctdb::testing::TestVocabulary(4);
  ltl::FormulaFactory fac_;
};

TEST_F(StoreTest, WrapOnlyReturnsOriginal) {
  Buchi ba = BA("G(e0 -> F e1)");
  const size_t states = ba.StateCount();
  ContractProjections store = ContractProjections::WrapOnly(std::move(ba));
  Bitset any(4);
  any.Set(0);
  EXPECT_EQ(&store.ForQueryEvents(any), &store.original());
  EXPECT_EQ(store.original().StateCount(), states);
  EXPECT_EQ(store.stats().subsets_computed, 0u);
}

TEST_F(StoreTest, PrecomputeEnumeratesAllSubsets) {
  ContractProjections store =
      ContractProjections::Precompute(BA("G(e0 -> F e1)"));
  const ProjectionStats stats = store.stats();
  EXPECT_EQ(stats.cited_events, 2u);
  EXPECT_EQ(stats.subsets_computed, 4u);  // {}, {0}, {1}, {0,1}
  EXPECT_GE(stats.distinct_partitions, 1u);
  EXPECT_LE(stats.distinct_partitions, stats.subsets_computed);
  EXPECT_GT(stats.partition_memory_bytes, 0u);
}

TEST_F(StoreTest, EmptyQuerySetGivesSmallestQuotient) {
  ContractProjections store =
      ContractProjections::Precompute(BA("G(e0 -> F e1) & G(e2 -> F e3)"));
  Bitset none(4);
  const Buchi& q = store.ForQueryEvents(none);
  // Projecting away all literals leaves a (usually 1-2 state) skeleton.
  EXPECT_LE(q.StateCount(), store.original().StateCount());
}

TEST_F(StoreTest, QuotientIsCached) {
  ContractProjections store =
      ContractProjections::Precompute(BA("G(e0 -> F e1)"));
  Bitset events(4);
  events.Set(0);
  const Buchi& first = store.ForQueryEvents(events);
  const Buchi& second = store.ForQueryEvents(events);
  EXPECT_EQ(&first, &second);
}

TEST_F(StoreTest, CapFallsBackToFullSet) {
  ProjectionStoreOptions options;
  options.max_enumerated_events = 1;  // force the capped path
  options.max_subset_size = 1;
  ContractProjections store = ContractProjections::Precompute(
      BA("G(e0 -> F e1) & G(e2 -> F e3)"), options);
  // A 2-event query has no exact entry: falls back to the full-set quotient,
  // which must still be permission-equivalent (checked by the property test
  // below); here we check it exists and is no larger than the original.
  Bitset two(4);
  two.Set(0);
  two.Set(2);
  const Buchi& q = store.ForQueryEvents(two);
  EXPECT_LE(q.StateCount(), store.original().StateCount());
}

TEST_F(StoreTest, ContractCitingNothing) {
  ContractProjections store = ContractProjections::Precompute(BA("true"));
  EXPECT_EQ(store.stats().cited_events, 0u);
  Bitset any(4);
  any.Set(1);
  const Buchi& q = store.ForQueryEvents(any);
  EXPECT_GE(q.StateCount(), 1u);
}

/// The store's end-to-end guarantee: for random contracts and queries, and
/// for every store configuration, permission through ForQueryEvents equals
/// permission on the original automaton.
class StorePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StorePropertyTest, PermissionInvariantUnderStoreQuotients) {
  const size_t kEvents = 3;
  ltl::FormulaFactory fac;
  const Vocabulary vocab = ctdb::testing::TestVocabulary(kEvents);
  Rng rng(606060 + GetParam());
  ProjectionStoreOptions options;
  options.max_enumerated_events = GetParam();  // 0 forces capped everywhere
  options.max_subset_size = GetParam() == 0 ? 1 : 2;

  for (int trial = 0; trial < 120; ++trial) {
    const ltl::Formula* cf =
        ctdb::testing::RandomFormula(&rng, &fac, kEvents, 3);
    const ltl::Formula* qf =
        ctdb::testing::RandomFormula(&rng, &fac, kEvents, 2);
    auto cba = translate::LtlToBuchi(cf, &fac);
    auto qba = translate::LtlToBuchi(qf, &fac);
    ASSERT_TRUE(cba.ok());
    ASSERT_TRUE(qba.ok());
    Bitset contract_events;
    cf->CollectEvents(&contract_events);
    contract_events.Resize(kEvents);

    const bool original = core::Permits(*cba, contract_events, *qba);
    ContractProjections store =
        ContractProjections::Precompute(std::move(*cba), options);
    const Buchi& simplified = store.ForQueryEvents(qba->CitedEvents());
    const bool with_store =
        core::Permits(simplified, contract_events, *qba);
    ASSERT_EQ(original, with_store)
        << "contract: " << cf->ToString(vocab)
        << "\nquery: " << qf->ToString(vocab)
        << "\nconfig: " << GetParam();
  }
}

/// The store against the definition: for every subset L of a random
/// contract's cited events, ForQueryEvents(L) is the quotient of π_K(A) by
/// its coarsest bisimulation, where K is L when the configuration stores L
/// and the full cited set otherwise. The reference builds π_K(A) explicitly
/// and refines it from the final split, with no lattice and no start
/// partition.
TEST_P(StorePropertyTest, QuotientsMatchTheDefinition) {
  const size_t kEvents = 4;
  ltl::FormulaFactory fac;
  const Vocabulary vocab = ctdb::testing::TestVocabulary(kEvents);
  Rng rng(707070 + GetParam());
  ProjectionStoreOptions options;
  options.max_enumerated_events = GetParam();
  options.max_subset_size = GetParam() == 0 ? 1 : 2;

  // Odd trials precompute on a pool: the level-parallel path must meet the
  // definition too.
  util::ThreadPool pool(2);
  ctdb::testing::CounterGrowth growth;
  for (int trial = 0; trial < 150; ++trial) {
    const ltl::Formula* cf =
        ctdb::testing::RandomFormula(&rng, &fac, kEvents, 4);
    auto cba = translate::LtlToBuchi(cf, &fac);
    ASSERT_TRUE(cba.ok());
    const Buchi ba = *cba;
    const ContractProjections store = ContractProjections::Precompute(
        std::move(*cba), options, trial % 2 == 1 ? &pool : nullptr);

    const Bitset cited_events = ba.CitedEvents();
    std::vector<EventId> cited;
    for (size_t e : cited_events.Indices()) {
      cited.push_back(static_cast<EventId>(e));
    }
    const bool all_stored = cited.size() <= options.max_enumerated_events;
    for (uint32_t mask = 0; mask < (1u << cited.size()); ++mask) {
      Bitset subset(kEvents);
      for (size_t i = 0; i < cited.size(); ++i) {
        if (mask & (1u << i)) subset.Set(cited[i]);
      }
      const bool stored =
          all_stored || subset.Count() <= options.max_subset_size;
      Bitset key = stored ? subset : cited_events;
      key.Resize(kEvents);
      const automata::Partition reference = automata::CoarsestBisimulation(
          Project(ba, RetainedLiterals::AllOf(key)));
      EXPECT_EQ(automata::Serialize(store.ForQueryEvents(subset), vocab),
                automata::Serialize(
                    automata::BuildQuotient(ba, reference, &key, &key), vocab))
          << "contract: " << cf->ToString(vocab) << "\nmask: " << mask
          << "\nconfig: " << GetParam();
    }
  }
  // The lattice rules decided some masks without a refinement.
  if (CTDB_OBS) {
    EXPECT_LT(growth("projection.refinements"),
              growth("projection.subsets_computed"));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, StorePropertyTest,
                         ::testing::Values(0, 2, 12));

/// Masks are one 64-bit word. A contract citing more events keeps no
/// projections: every query gets the registered automaton, so permission
/// through the store equals permission on the original.
TEST(StoreWideContractTest, MoreThan64EventsKeepNoProjections) {
  for (int events : {65, 70}) {
    Vocabulary vocab = ctdb::testing::TestVocabulary(70);
    ltl::FormulaFactory fac;
    std::string text = "(e0";
    for (int e = 1; e < events; ++e) text += " | e" + std::to_string(e);
    text += ") & G(e8 -> X !e8)";
    auto contract = ltl::Parse(text, &fac, &vocab);
    ASSERT_TRUE(contract.ok()) << contract.status();
    auto cba = translate::LtlToBuchi(*contract, &fac);
    ASSERT_TRUE(cba.ok()) << cba.status();
    Bitset contract_events;
    (*contract)->CollectEvents(&contract_events);
    const Buchi original = *cba;
    const ContractProjections store =
        ContractProjections::Precompute(std::move(*cba));
    EXPECT_EQ(store.stats().cited_events, static_cast<size_t>(events));
    EXPECT_EQ(store.stats().subsets_computed, 0u);

    for (const char* query_text :
         {"F(e8 & X e8) & F e1 & F e2 & F e3 & F e4", "F(e8 & X e8)",
          "G !e0 & F e64", "F e1 & G !e8"}) {
      auto query = ltl::Parse(query_text, &fac, &vocab);
      ASSERT_TRUE(query.ok()) << query.status();
      auto qba = translate::LtlToBuchi(*query, &fac);
      ASSERT_TRUE(qba.ok()) << qba.status();
      const Buchi& simplified = store.ForQueryEvents(qba->CitedEvents());
      EXPECT_EQ(&simplified, &store.original());
      EXPECT_EQ(core::Permits(simplified, contract_events, *qba),
                core::Permits(original, contract_events, *qba))
          << events << " events, query " << query_text;
    }
  }
}

/// §7.4's distinct-partition ratio, pinned: the projection statistics of the
/// first contracts of bench_index_build's corpus (5-property contracts,
/// generator seed 0x1DB), registered as that bench registers them.
TEST(StoreGoldenTest, IndexBuildCorpusStatsMatchGolden) {
  const std::string path =
      std::string(CTDB_TESTDATA_DIR) + "/projection_stats.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  broker::ContractDatabase db;
  workload::GeneratorOptions gen_options;
  gen_options.properties = 5;
  workload::SpecGenerator generator(gen_options, 0x1DB, db.vocabulary(),
                                    db.factory());
  std::ostringstream got;
  for (int i = 0; i < 10; ++i) {
    auto spec = generator.Next();
    ASSERT_TRUE(spec.ok()) << spec.status();
    auto id = db.RegisterFormula("c" + std::to_string(i), spec->formula,
                                 spec->text);
    ASSERT_TRUE(id.ok()) << id.status();
    const ProjectionStats stats = db.contract(*id).projections.stats();
    got << "c" << i << " subsets_computed=" << stats.subsets_computed
        << " distinct_partitions=" << stats.distinct_partitions
        << " full_partition_blocks=" << stats.full_partition_blocks << "\n";
  }
  EXPECT_EQ(got.str(), golden.str());
}

TEST_F(StoreTest, ParallelPrecomputeIsIdenticalToSerial) {
  Buchi ba = BA("G(e0 -> F e1) & G(e2 -> F e3) & (e1 U e2)");
  util::ThreadPool pool(4);
  ContractProjections serial = ContractProjections::Precompute(ba);
  ContractProjections parallel =
      ContractProjections::Precompute(std::move(ba), {}, &pool);

  const ProjectionStats a = serial.stats();
  const ProjectionStats b = parallel.stats();
  EXPECT_EQ(a.cited_events, b.cited_events);
  EXPECT_EQ(a.subsets_computed, b.subsets_computed);
  EXPECT_EQ(a.distinct_partitions, b.distinct_partitions);
  EXPECT_EQ(a.full_partition_blocks, b.full_partition_blocks);
  EXPECT_EQ(a.partition_memory_bytes, b.partition_memory_bytes);

  // Every query subset resolves to the same quotient automaton.
  for (uint32_t mask = 0; mask < 16; ++mask) {
    Bitset events(4);
    for (size_t e = 0; e < 4; ++e) {
      if (mask & (1u << e)) events.Set(e);
    }
    EXPECT_EQ(automata::Serialize(serial.ForQueryEvents(events), vocab_),
              automata::Serialize(parallel.ForQueryEvents(events), vocab_))
        << "mask " << mask;
  }
}

}  // namespace
}  // namespace ctdb::projection

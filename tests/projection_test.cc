#include "projection/projection.h"

#include <gtest/gtest.h>

#include "automata/bisimulation.h"
#include "automata/quotient.h"
#include "core/permission.h"
#include "testing/generators.h"
#include "translate/ltl_to_ba.h"

namespace ctdb::projection {
namespace {

using automata::Buchi;
using automata::StateId;

Label L(std::initializer_list<Literal> lits) {
  return Label::FromLiterals(std::vector<Literal>(lits));
}

TEST(RetainedLiteralsTest, FromKeySplitsPolarities) {
  // Literals: +e0 (id 0), -e2 (id 5).
  const RetainedLiterals r = RetainedLiterals::FromKey({0, 5});
  EXPECT_TRUE(r.pos.Test(0));
  EXPECT_FALSE(r.pos.Test(2));
  EXPECT_TRUE(r.neg.Test(2));
  EXPECT_FALSE(r.neg.Test(0));
}

TEST(RetainedLiteralsTest, AllOfKeepsBothPolarities) {
  Bitset events(3);
  events.Set(1);
  const RetainedLiterals r = RetainedLiterals::AllOf(events);
  EXPECT_TRUE(r.pos.Test(1));
  EXPECT_TRUE(r.neg.Test(1));
  EXPECT_FALSE(r.pos.Test(0));
}

TEST(NeededEventsTest, IntersectsQueryWithContract) {
  Bitset query(4);
  query.Set(0);
  query.Set(2);
  Bitset contract(4);
  contract.Set(2);
  contract.Set(3);
  const Bitset needed = NeededEvents(query, contract);
  EXPECT_FALSE(needed.Test(0));  // not in contract: can't conflict
  EXPECT_TRUE(needed.Test(2));
  EXPECT_FALSE(needed.Test(3));  // not in query: never compared
}

TEST(ProjectTest, DropsUnretainedLiterals) {
  Buchi ba;
  const StateId s = ba.AddState();
  ba.SetFinal(s);
  ba.AddTransition(0, L({{0, false}, {1, true}}), s);
  ba.AddTransition(s, Label(), s);
  Bitset keep(2);
  keep.Set(1);
  const Buchi p = Project(ba, RetainedLiterals::AllOf(keep));
  ASSERT_EQ(p.Out(0).size(), 1u);
  EXPECT_EQ(p.Out(0)[0].label.LiteralCount(), 1u);
  EXPECT_TRUE(p.Out(0)[0].label.Contains(Literal{1, true}));
}

/// Theorem 9 as a property: permission is invariant under replacing the
/// contract BA with the bisimulation quotient of its projection, for every
/// query whose literals the projection retains (we retain both polarities of
/// all query-label events, the store's superset policy).
TEST(ProjectionEquivalenceTest, Theorem9OnRandomContractQueryPairs) {
  const size_t kEvents = 3;
  ltl::FormulaFactory fac;
  const Vocabulary vocab = ctdb::testing::TestVocabulary(kEvents);
  Rng rng(90909);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
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

    // Project onto the events the query's labels cite (both polarities).
    const Bitset retained =
        NeededEvents(qba->CitedEvents(), cba->CitedEvents());
    Bitset retained_resized = retained;
    retained_resized.Resize(kEvents);
    const automata::Partition part = automata::CoarsestBisimulation(
        Project(*cba, RetainedLiterals::AllOf(retained_resized)));
    const Buchi quotient = automata::BuildQuotient(
        *cba, part, &retained_resized, &retained_resized);

    const bool original =
        core::Permits(*cba, contract_events, *qba);
    const bool simplified =
        core::Permits(quotient, contract_events, *qba);
    ASSERT_EQ(original, simplified)
        << "contract: " << cf->ToString(vocab)
        << "\nquery: " << qf->ToString(vocab);
    ++checked;
  }
  EXPECT_EQ(checked, 200);
}

/// Theorem 3 as a property: partitions refine monotonically along the
/// retained-literal lattice.
TEST(ProjectionLatticeTest, Theorem3RefinementOrder) {
  const size_t kEvents = 3;
  ltl::FormulaFactory fac;
  Rng rng(80808);
  for (int trial = 0; trial < 100; ++trial) {
    const ltl::Formula* cf =
        ctdb::testing::RandomFormula(&rng, &fac, kEvents, 3);
    auto cba = translate::LtlToBuchi(cf, &fac);
    ASSERT_TRUE(cba.ok());

    Bitset small(kEvents);
    small.Set(0);
    Bitset large(kEvents);
    large.Set(0);
    large.Set(1);

    const Buchi projected_small =
        Project(*cba, RetainedLiterals::AllOf(small));
    const Buchi projected_large =
        Project(*cba, RetainedLiterals::AllOf(large));
    const automata::Partition p_small =
        automata::CoarsestBisimulation(projected_small);
    const automata::Partition p_large =
        automata::CoarsestBisimulation(projected_large);

    EXPECT_TRUE(p_large.Refines(p_small));

    // And starting the large computation from the small partition gives the
    // same result (the lattice-order optimization's correctness).
    const automata::Partition p_seeded =
        automata::CoarsestBisimulation(projected_large, &p_small);
    EXPECT_EQ(p_seeded, p_large);
  }
}

}  // namespace
}  // namespace ctdb::projection

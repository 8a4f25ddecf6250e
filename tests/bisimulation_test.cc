#include "automata/bisimulation.h"

#include <gtest/gtest.h>

#include "automata/quotient.h"
#include "automata/word.h"
#include "testing/generators.h"

namespace ctdb::automata {
namespace {

Label L(std::initializer_list<Literal> lits) {
  return Label::FromLiterals(std::vector<Literal>(lits));
}

TEST(PartitionTest, CanonicalizeRenumbersByFirstOccurrence) {
  Partition p;
  p.block_of = {5, 3, 5, 0};
  p.block_count = 6;
  p.Canonicalize();
  EXPECT_EQ(p.block_of, (std::vector<uint32_t>{0, 1, 0, 2}));
  EXPECT_EQ(p.block_count, 3u);
}

TEST(PartitionTest, Refines) {
  Partition fine;
  fine.block_of = {0, 1, 2, 2};
  fine.block_count = 3;
  Partition coarse;
  coarse.block_of = {0, 0, 1, 1};
  coarse.block_count = 2;
  EXPECT_TRUE(fine.Refines(coarse));
  EXPECT_FALSE(coarse.Refines(fine));
  EXPECT_TRUE(fine.Refines(fine));
}

TEST(PartitionTest, FactoryHelpers) {
  Buchi ba;
  ba.AddState();
  ba.SetFinal(1);
  const Partition discrete = Partition::Discrete(2);
  EXPECT_EQ(discrete.block_count, 2u);
  const Partition split = Partition::FinalSplit(ba);
  EXPECT_EQ(split.block_count, 2u);
  EXPECT_NE(split.block_of[0], split.block_of[1]);
}

/// Figure 4 of the paper in miniature: two states accepting the same
/// (!d)-forever language must collapse.
TEST(BisimulationTest, CollapsesLanguageEqualStates) {
  Buchi ba;
  const StateId a = ba.AddState();
  const StateId b = ba.AddState();
  ba.SetFinal(a);
  ba.SetFinal(b);
  const Label not_d = L({{0, true}});
  ba.AddTransition(0, not_d, a);
  ba.AddTransition(0, not_d, b);
  ba.AddTransition(a, not_d, a);
  ba.AddTransition(b, not_d, b);
  const Partition p = CoarsestBisimulation(ba);
  EXPECT_EQ(p.block_of[a], p.block_of[b]);
  EXPECT_NE(p.block_of[0], p.block_of[a]);  // init not final
  EXPECT_EQ(p.block_count, 2u);
}

TEST(BisimulationTest, FinalityIsRespected) {
  Buchi ba;
  const StateId a = ba.AddState();
  ba.SetFinal(a);
  // Same transitions but different finality: never merged.
  ba.AddTransition(0, Label(), 0);
  ba.AddTransition(a, Label(), a);
  // ... give them identical behavior otherwise.
  const Partition p = CoarsestBisimulation(ba);
  EXPECT_NE(p.block_of[0], p.block_of[a]);
}

TEST(BisimulationTest, DifferentLabelsPreventMerge) {
  Buchi ba;
  const StateId a = ba.AddState();
  const StateId b = ba.AddState();
  const StateId sink = ba.AddState();
  ba.SetFinal(sink);
  ba.AddTransition(sink, Label(), sink);
  ba.AddTransition(a, L({{0, false}}), sink);
  ba.AddTransition(b, L({{1, false}}), sink);
  const Partition p = CoarsestBisimulation(ba);
  EXPECT_NE(p.block_of[a], p.block_of[b]);
}

TEST(BisimulationTest, ProjectionMergesLabelDistinctions) {
  Buchi ba;
  const StateId a = ba.AddState();
  const StateId b = ba.AddState();
  const StateId sink = ba.AddState();
  ba.SetFinal(sink);
  ba.AddTransition(sink, Label(), sink);
  ba.AddTransition(a, L({{0, false}}), sink);
  ba.AddTransition(b, L({{1, false}}), sink);
  // Retain nothing: both labels fall into one class and a ~ b.
  std::vector<Label> labels;
  const LabeledTransitions moves = LabeledTransitions::Of(ba, &labels);
  ASSERT_EQ(labels.size(), 3u);
  const std::vector<uint32_t> one_class(labels.size(), 0);
  const Partition p =
      RefineToBisimulation(moves, one_class, Partition::FinalSplit(ba));
  EXPECT_EQ(p.block_of[a], p.block_of[b]);
  EXPECT_NE(p.block_of[a], p.block_of[sink]);
}

TEST(PartitionTest, MeetIsTheCommonRefinement) {
  Partition a;
  a.block_of = {0, 0, 1, 1};
  a.block_count = 2;
  Partition b;
  b.block_of = {0, 1, 1, 1};
  b.block_count = 2;
  const Partition meet = a.Meet(b);
  EXPECT_EQ(meet.block_of, (std::vector<uint32_t>{0, 1, 2, 2}));
  EXPECT_EQ(meet.block_count, 3u);
  EXPECT_TRUE(meet.Refines(a));
  EXPECT_TRUE(meet.Refines(b));
  EXPECT_EQ(a.Meet(a), a);
}

TEST(BisimulationTest, StartPartitionIsRefined) {
  Buchi ba;
  const StateId a = ba.AddState();
  const StateId b = ba.AddState();
  // All three states are behaviorally identical (no transitions, non-final),
  // but a start partition separating {0} from {a, b} must stay separated.
  Partition start;
  start.block_of = {0, 1, 1};
  start.block_count = 2;
  const Partition p = CoarsestBisimulation(ba, &start);
  EXPECT_NE(p.block_of[0], p.block_of[a]);
  EXPECT_EQ(p.block_of[a], p.block_of[b]);
}

TEST(QuotientTest, BuildsBlocksAndPreservesStructure) {
  Buchi ba;
  const StateId a = ba.AddState();
  const StateId b = ba.AddState();
  ba.SetFinal(a);
  ba.SetFinal(b);
  const Label ell = L({{0, false}});
  ba.AddTransition(0, ell, a);
  ba.AddTransition(0, ell, b);
  ba.AddTransition(a, ell, a);
  ba.AddTransition(b, ell, b);
  const Partition p = CoarsestBisimulation(ba);
  const Buchi q = BuildQuotient(ba, p);
  EXPECT_EQ(q.StateCount(), 2u);
  EXPECT_EQ(q.TransitionCount(), 2u);  // init->block, block->block (deduped)
  EXPECT_EQ(q.FinalCount(), 1u);
  EXPECT_TRUE(q.Validate().ok());
}

/// Theorem 8 as a property: the quotient accepts exactly the same lasso words
/// as the original, on randomly generated automata.
TEST(BisimulationTest, QuotientPreservesLanguageOnRandomAutomata) {
  Rng rng(20110328);
  const size_t kEvents = 3;
  for (int trial = 0; trial < 60; ++trial) {
    Buchi ba;
    const size_t n = 2 + rng.Uniform(6);
    ba.AddStates(n - 1);
    for (size_t s = 0; s < n; ++s) {
      if (rng.Chance(0.4)) ba.SetFinal(static_cast<StateId>(s));
      const size_t out = rng.Uniform(4);
      for (size_t t = 0; t < out; ++t) {
        Label label;
        for (size_t e = 0; e < kEvents; ++e) {
          const uint64_t pick = rng.Uniform(3);
          if (pick == 1) label.AddPositive(static_cast<EventId>(e));
          if (pick == 2) label.AddNegative(static_cast<EventId>(e));
        }
        ba.AddTransition(static_cast<StateId>(s), label,
                         static_cast<StateId>(rng.Uniform(n)));
      }
    }
    const Partition p = CoarsestBisimulation(ba);
    const Buchi q = BuildQuotient(ba, p);
    for (int w = 0; w < 20; ++w) {
      const LassoWord word = ctdb::testing::RandomWord(&rng, kEvents, 3, 3);
      EXPECT_EQ(AcceptsWord(ba, word), AcceptsWord(q, word))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace ctdb::automata

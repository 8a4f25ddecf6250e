#include "automata/ops.h"

#include <gtest/gtest.h>

#include "automata/word.h"
#include "testing/generators.h"

namespace ctdb::automata {
namespace {

Label L(std::initializer_list<Literal> lits) {
  return Label::FromLiterals(std::vector<Literal>(lits));
}

/// init -> a -> b(final, loop); c unreachable; d reachable dead-end.
Buchi MakeFixture() {
  Buchi ba;
  const StateId a = ba.AddState();
  const StateId b = ba.AddState();
  const StateId c = ba.AddState();
  const StateId d = ba.AddState();
  ba.SetFinal(b);
  ba.AddTransition(0, L({{0, false}}), a);
  ba.AddTransition(a, L({{1, false}}), b);
  ba.AddTransition(b, Label(), b);
  ba.AddTransition(c, Label(), b);   // c unreachable
  ba.AddTransition(a, Label(), d);   // d dead end
  return ba;
}

TEST(OpsTest, ReachableStates) {
  const Buchi ba = MakeFixture();
  const Bitset reachable = ReachableStates(ba);
  EXPECT_TRUE(reachable.Test(0));
  EXPECT_TRUE(reachable.Test(1));
  EXPECT_TRUE(reachable.Test(2));
  EXPECT_FALSE(reachable.Test(3));  // c
  EXPECT_TRUE(reachable.Test(4));   // d reachable (though dead)
}

TEST(OpsTest, PruneDeadStatesDropsDeadAndUnreachable) {
  const Buchi ba = MakeFixture();
  std::vector<StateId> map;
  const Buchi pruned = PruneDeadStates(ba, &map);
  EXPECT_EQ(pruned.StateCount(), 3u);  // init, a, b
  EXPECT_EQ(map[3], kDroppedState);
  EXPECT_EQ(map[4], kDroppedState);
  EXPECT_NE(map[0], kDroppedState);
  EXPECT_EQ(pruned.TransitionCount(), 3u);
  EXPECT_EQ(pruned.FinalCount(), 1u);
  EXPECT_TRUE(pruned.Validate().ok());
}

TEST(OpsTest, PruneKeepsInitialEvenWhenDead) {
  Buchi ba;  // single non-final state, no transitions: empty language
  const Buchi pruned = PruneDeadStates(ba);
  EXPECT_EQ(pruned.StateCount(), 1u);
  EXPECT_TRUE(IsEmptyLanguage(pruned));
}

TEST(OpsTest, PruneDropsFinalWithoutCycle) {
  Buchi ba;
  const StateId fin = ba.AddState();
  ba.SetFinal(fin);
  ba.AddTransition(0, Label(), fin);
  // Final state has no cycle: language empty, everything but init pruned.
  const Buchi pruned = PruneDeadStates(ba);
  EXPECT_EQ(pruned.StateCount(), 1u);
  EXPECT_EQ(pruned.TransitionCount(), 0u);
}

TEST(OpsTest, IsEmptyLanguage) {
  EXPECT_TRUE(IsEmptyLanguage(Buchi()));
  Buchi accepting;
  accepting.SetFinal(0);
  accepting.AddTransition(0, Label(), 0);
  EXPECT_FALSE(IsEmptyLanguage(accepting));

  // Final cycle unreachable from init.
  Buchi unreachable;
  const StateId island = unreachable.AddState();
  unreachable.SetFinal(island);
  unreachable.AddTransition(island, Label(), island);
  EXPECT_TRUE(IsEmptyLanguage(unreachable));

  // Reachable cycle without final.
  Buchi no_final;
  no_final.AddTransition(0, Label(), 0);
  EXPECT_TRUE(IsEmptyLanguage(no_final));
}

TEST(OpsTest, ProjectLabelsDropsLiterals) {
  Buchi ba;
  const StateId s1 = ba.AddState();
  ba.SetFinal(s1);
  ba.AddTransition(0, L({{0, false}, {1, true}}), s1);
  ba.AddTransition(s1, L({{1, true}}), s1);
  Bitset keep(2);
  keep.Set(1);
  const Buchi projected = ProjectLabels(ba, keep, keep);
  ASSERT_EQ(projected.Out(0).size(), 1u);
  const Label& label = projected.Out(0)[0].label;
  EXPECT_FALSE(label.Contains(Literal{0, false}));
  EXPECT_TRUE(label.Contains(Literal{1, true}));
  EXPECT_TRUE(projected.IsFinal(s1));
  EXPECT_EQ(projected.initial(), ba.initial());
}

/// Property: pruning dead states never changes the accepted language.
TEST(OpsTest, PruneDeadStatesPreservesLanguageOnRandomAutomata) {
  Rng rng(0x9055);
  const size_t kEvents = 3;
  for (int trial = 0; trial < 80; ++trial) {
    Buchi ba;
    const size_t n = 2 + rng.Uniform(7);
    ba.AddStates(n - 1);
    for (size_t s = 0; s < n; ++s) {
      if (rng.Chance(0.3)) ba.SetFinal(static_cast<StateId>(s));
      const size_t out = rng.Uniform(3);
      for (size_t t = 0; t < out; ++t) {
        Label label;
        for (EventId e = 0; e < kEvents; ++e) {
          const uint64_t pick = rng.Uniform(4);
          if (pick == 1) label.AddPositive(e);
          if (pick == 2) label.AddNegative(e);
        }
        ba.AddTransition(static_cast<StateId>(s), label,
                         static_cast<StateId>(rng.Uniform(n)));
      }
    }
    const Buchi pruned = PruneDeadStates(ba);
    EXPECT_LE(pruned.StateCount(), ba.StateCount());
    EXPECT_EQ(IsEmptyLanguage(ba), IsEmptyLanguage(pruned));
    for (int w = 0; w < 15; ++w) {
      const LassoWord word = ctdb::testing::RandomWord(&rng, kEvents, 3, 3);
      ASSERT_EQ(AcceptsWord(ba, word), AcceptsWord(pruned, word))
          << "trial " << trial;
    }
  }
}

/// Property: projecting labels onto everything is the identity (up to
/// transition dedup), and onto nothing yields a superset language.
TEST(OpsTest, ProjectionLanguageMonotonicity) {
  Rng rng(0xF170);
  const size_t kEvents = 3;
  Bitset all(kEvents);
  all.SetAll();
  Bitset none(kEvents);
  for (int trial = 0; trial < 50; ++trial) {
    Buchi ba;
    const size_t n = 2 + rng.Uniform(5);
    ba.AddStates(n - 1);
    for (size_t s = 0; s < n; ++s) {
      if (rng.Chance(0.4)) ba.SetFinal(static_cast<StateId>(s));
      for (size_t t = 0; t < 2; ++t) {
        Label label;
        for (EventId e = 0; e < kEvents; ++e) {
          const uint64_t pick = rng.Uniform(3);
          if (pick == 1) label.AddPositive(e);
          if (pick == 2) label.AddNegative(e);
        }
        ba.AddTransition(static_cast<StateId>(s), label,
                         static_cast<StateId>(rng.Uniform(n)));
      }
    }
    const Buchi identity = ProjectLabels(ba, all, all);
    const Buchi relaxed = ProjectLabels(ba, none, none);
    for (int w = 0; w < 10; ++w) {
      const LassoWord word = ctdb::testing::RandomWord(&rng, kEvents, 2, 3);
      const bool original = AcceptsWord(ba, word);
      EXPECT_EQ(original, AcceptsWord(identity, word));
      // Dropping literals only relaxes transition guards.
      if (original) {
        EXPECT_TRUE(AcceptsWord(relaxed, word));
      }
    }
  }
}

TEST(OpsTest, ProjectLabelsDedupsCollapsedTransitions) {
  Buchi ba;
  const StateId s1 = ba.AddState();
  ba.AddTransition(0, L({{0, false}}), s1);
  ba.AddTransition(0, L({{0, true}}), s1);
  Bitset none(1);
  const Buchi projected = ProjectLabels(ba, none, none);
  // Both labels become `true`: deduplicated to one transition.
  EXPECT_EQ(projected.Out(0).size(), 1u);
  EXPECT_TRUE(projected.Out(0)[0].label.IsTrue());
}

}  // namespace
}  // namespace ctdb::automata

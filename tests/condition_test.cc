#include "index/condition.h"

#include <gtest/gtest.h>

namespace ctdb::index {
namespace {

using automata::Buchi;
using automata::StateId;

Label L(std::initializer_list<Literal> lits) {
  return Label::FromLiterals(std::vector<Literal>(lits));
}

Buchi Single(const Label& label) {
  Buchi ba;
  const StateId s = ba.AddState();
  ba.SetFinal(s);
  ba.AddTransition(0, label, s);
  ba.AddTransition(s, Label(), s);
  return ba;
}

Bitset Events(std::initializer_list<EventId> events, size_t n = 4) {
  Bitset b(n);
  for (EventId e : events) b.Set(e);
  return b;
}

class ConditionTest : public ::testing::Test {
 protected:
  ConditionTest() : vocab_({"a", "b", "c", "d"}) {
    index_.Insert(0, Single(L({{0, false}})), Events({0}));
    index_.Insert(1, Single(L({{1, false}})), Events({1}));
    index_.Insert(2, Single(L({{0, false}, {1, true}})), Events({0, 1}));
  }
  Vocabulary vocab_;
  PrefilterIndex index_;
};

TEST_F(ConditionTest, ConstantsEvaluate) {
  EXPECT_EQ(Condition::True().Evaluate(index_).Count(), 3u);
  EXPECT_TRUE(Condition::False().Evaluate(index_).None());
}

TEST_F(ConditionTest, LeafEvaluatesViaIndex) {
  const Condition leaf = Condition::Leaf(L({{0, false}}));
  const Bitset got = leaf.Evaluate(index_);
  EXPECT_TRUE(got.Test(0));
  EXPECT_FALSE(got.Test(1));
  EXPECT_TRUE(got.Test(2));
}

TEST_F(ConditionTest, TrueLabelLeafBecomesTrue) {
  const Condition leaf = Condition::Leaf(Label());
  EXPECT_EQ(leaf.kind(), Condition::Kind::kTrue);
}

TEST_F(ConditionTest, AndIntersects) {
  const Condition c = Condition::And({Condition::Leaf(L({{0, false}})),
                                      Condition::Leaf(L({{1, true}}))});
  const Bitset got = c.Evaluate(index_);
  EXPECT_EQ(got.ToVector(), (std::vector<size_t>{2}));
}

TEST_F(ConditionTest, OrUnions) {
  const Condition c = Condition::Or({Condition::Leaf(L({{0, false}})),
                                     Condition::Leaf(L({{1, false}}))});
  const Bitset got = c.Evaluate(index_);
  EXPECT_EQ(got.Count(), 3u);
}

TEST_F(ConditionTest, SimplificationRules) {
  const Condition leaf = Condition::Leaf(L({{0, false}}));
  // Absorption of constants.
  EXPECT_EQ(Condition::And({Condition::True(), leaf}), leaf);
  EXPECT_EQ(Condition::And({Condition::False(), leaf}).kind(),
            Condition::Kind::kFalse);
  EXPECT_EQ(Condition::Or({Condition::False(), leaf}), leaf);
  EXPECT_EQ(Condition::Or({Condition::True(), leaf}).kind(),
            Condition::Kind::kTrue);
  // Empty n-ary forms.
  EXPECT_EQ(Condition::And({}).kind(), Condition::Kind::kTrue);
  EXPECT_EQ(Condition::Or({}).kind(), Condition::Kind::kFalse);
  // Deduplication.
  EXPECT_EQ(Condition::And({leaf, leaf}), leaf);
  // Flattening.
  const Condition nested =
      Condition::And({Condition::And({leaf}), Condition::Leaf(L({{1, true}}))});
  EXPECT_EQ(nested.children().size(), 2u);
}

TEST_F(ConditionTest, SizeAndToString) {
  const Condition c = Condition::Or({
      Condition::Leaf(L({{2, false}})),
      Condition::And({Condition::Leaf(L({{0, false}})),
                      Condition::Leaf(L({{1, false}}))}),
  });
  EXPECT_EQ(c.Size(), 5u);  // Or + leaf + And + two leaves
  EXPECT_EQ(c.ToString(vocab_), "(S(c) | (S(a) & S(b)))");
  EXPECT_EQ(Condition::True().ToString(vocab_), "TRUE");
}

TEST_F(ConditionTest, EqualSubtreesBuiltSeparatelyDedup) {
  auto build = [] {
    return Condition::And({Condition::Leaf(L({{0, false}})),
                           Condition::Leaf(L({{1, true}}))});
  };
  const Condition first = build();
  const Condition second = build();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.Hash(), second.Hash());
  const Condition c =
      Condition::Or({first, Condition::Leaf(L({{2, false}})), second});
  ASSERT_EQ(c.children().size(), 2u);
  EXPECT_EQ(c.ToString(vocab_), "((S(a) & S(!b)) | S(c))");
  // Order matters: a permuted conjunction is a different child.
  const Condition permuted = Condition::And(
      {Condition::Leaf(L({{1, true}})), Condition::Leaf(L({{0, false}}))});
  EXPECT_NE(permuted, first);
  EXPECT_EQ(Condition::Or({first, permuted}).children().size(), 2u);
}

TEST_F(ConditionTest, LabelsOfDifferentCapacityDedup) {
  const Label narrow = L({{0, false}, {1, true}});
  Label wide(256);
  wide.AddPositive(0);
  wide.AddNegative(1);
  ASSERT_NE(narrow.positive().size(), wide.positive().size());
  const Condition a = Condition::Leaf(narrow);
  const Condition b = Condition::Leaf(wide);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(Condition::Or({a, b}).kind(), Condition::Kind::kLeaf);
  const Condition c = Condition::Leaf(L({{2, false}}));
  EXPECT_EQ(Condition::And({Condition::Or({a, c}), Condition::Or({b, c})})
                .kind(),
            Condition::Kind::kOr);
}

TEST_F(ConditionTest, SizeCountsSharedSubtermPerOccurrence) {
  const Condition shared = Condition::Or(
      {Condition::Leaf(L({{0, false}})), Condition::Leaf(L({{1, false}}))});
  ASSERT_EQ(shared.Size(), 3u);
  const Condition top = Condition::Or({
      Condition::And({shared, Condition::Leaf(L({{2, false}}))}),
      Condition::And({shared, Condition::Leaf(L({{3, false}}))}),
  });
  // Both conjunctions hold the very same node…
  EXPECT_EQ(&top.children()[0].children()[0].children(),
            &top.children()[1].children()[0].children());
  // …but the tree size counts it twice: Or + 2 × (And + 3 + leaf).
  EXPECT_EQ(top.Size(), 11u);
  EXPECT_EQ(top.ToString(vocab_),
            "(((S(a) | S(b)) & S(c)) | ((S(a) | S(b)) & S(d)))");
}

TEST_F(ConditionTest, CopiesShareNodes) {
  const Condition original = Condition::And(
      {Condition::Leaf(L({{0, false}})), Condition::Leaf(L({{1, false}}))});
  const Condition copy = original;
  EXPECT_EQ(&copy.children(), &original.children());
  // Embedding shares the subtree…
  const Condition parent =
      Condition::Or({original, Condition::Leaf(L({{2, false}}))});
  EXPECT_EQ(&parent.children()[0].children(), &original.children());
  // …and flattening shares the grandchildren themselves.
  const Condition flat =
      Condition::And({original, Condition::Leaf(L({{2, false}}))});
  ASSERT_EQ(flat.children().size(), 3u);
  EXPECT_EQ(&flat.children()[0].label(), &original.children()[0].label());
  EXPECT_EQ(&flat.children()[1].label(), &original.children()[1].label());
}

TEST_F(ConditionTest, EvaluationIsMonotone) {
  // Adding a contract to the index can only grow every condition's result.
  const Condition c = Condition::Or({
      Condition::Leaf(L({{0, false}})),
      Condition::And({Condition::Leaf(L({{1, false}})),
                      Condition::Leaf(L({{1, true}}))}),
  });
  const Bitset before = c.Evaluate(index_);
  PrefilterIndex bigger = index_;
  bigger.Insert(3, Single(L({{0, false}, {1, false}})), Events({0, 1}));
  Bitset after = c.Evaluate(bigger);
  Bitset before_resized = before;
  before_resized.Resize(after.size());
  EXPECT_TRUE(before_resized.IsSubsetOf(after));
}

}  // namespace
}  // namespace ctdb::index

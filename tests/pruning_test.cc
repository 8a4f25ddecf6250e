#include "index/pruning.h"

#include <gtest/gtest.h>

#include "core/permission.h"
#include "ltl/parser.h"
#include "testing/generators.h"
#include "translate/ltl_to_ba.h"

namespace ctdb::index {
namespace {

using automata::Buchi;
using automata::StateId;

Label L(std::initializer_list<Literal> lits) {
  return Label::FromLiterals(std::vector<Literal>(lits));
}

TEST(PruningTest, NoKnottableFinalStateYieldsFalse) {
  // Final state with no cycle: query language empty.
  Buchi ba;
  const StateId fin = ba.AddState();
  ba.SetFinal(fin);
  ba.AddTransition(0, L({{0, false}}), fin);
  const Condition c = ExtractPruningCondition(ba);
  EXPECT_EQ(c.kind(), Condition::Kind::kFalse);
}

TEST(PruningTest, UnreachableFinalStateIgnored) {
  Buchi ba;
  const StateId island = ba.AddState();
  ba.SetFinal(island);
  ba.AddTransition(island, Label(), island);
  const Condition c = ExtractPruningCondition(ba);
  EXPECT_EQ(c.kind(), Condition::Kind::kFalse);
}

TEST(PruningTest, SimpleReachableLasso) {
  // init --a--> fin with --b--> self loop.
  Buchi ba;
  const StateId fin = ba.AddState();
  ba.SetFinal(fin);
  ba.AddTransition(0, L({{0, false}}), fin);
  ba.AddTransition(fin, L({{1, false}}), fin);
  const Condition c = ExtractPruningCondition(ba);
  // Expect S(b) ∧ S(a) (cycle label ∧ path label), in some association.
  Vocabulary vocab({"a", "b"});
  const std::string s = c.ToString(vocab);
  EXPECT_NE(s.find("S(a)"), std::string::npos);
  EXPECT_NE(s.find("S(b)"), std::string::npos);
  EXPECT_EQ(c.kind(), Condition::Kind::kAnd);
}

TEST(PruningTest, TrueCycleLabelPrunesNothingFromCycle) {
  Buchi ba;
  const StateId fin = ba.AddState();
  ba.SetFinal(fin);
  ba.AddTransition(0, L({{0, false}}), fin);
  ba.AddTransition(fin, Label(), fin);  // true self-loop
  const Condition c = ExtractPruningCondition(ba);
  // cycle condition is TRUE; path condition S(a) remains.
  Vocabulary vocab({"a"});
  EXPECT_EQ(c.ToString(vocab), "S(a)");
}

TEST(PruningTest, Figure2dShape) {
  // Paper Example 9 (Figure 2d): two prefixes (flightCanceled | miss then
  // changeApproved), cycle requires requestChange and changeApproved.
  // Events: 0=flightCanceled, 1=miss, 2=changeApproved, 3=requestChange.
  Buchi ba;
  const StateId s1 = ba.AddState();
  const StateId s2 = ba.AddState();  // final
  const StateId s3 = ba.AddState();
  const StateId s4 = ba.AddState();
  ba.SetFinal(s2);
  ba.AddTransition(0, Label(), 0);                  // * self-loop
  ba.AddTransition(0, L({{0, false}}), s2);         // flightCanceled
  ba.AddTransition(0, L({{1, false}}), s1);         // miss
  ba.AddTransition(s1, Label(), s1);                // * self-loop
  ba.AddTransition(s1, L({{2, false}}), s2);        // changeApproved
  ba.AddTransition(s2, Label(), s3);                // true
  ba.AddTransition(s3, L({{3, false}}), s4);        // requestChange
  ba.AddTransition(s4, L({{2, false}}), s2);        // changeApproved
  const Condition c = ExtractPruningCondition(ba);

  // Build a tiny index to check the candidate algebra of Example 9:
  // a contract must have changeApproved-compatible labels (the only
  // in-SCC incoming label of s2) AND one of the prefixes.
  PrefilterIndex index;
  auto single = [](const Label& label) {
    Buchi one;
    const StateId f = one.AddState();
    one.SetFinal(f);
    one.AddTransition(0, label, f);
    one.AddTransition(f, Label(), f);
    return one;
  };
  Bitset all_events(4);
  all_events.SetAll();
  // Contract 0: has everything.
  Buchi full;
  {
    const StateId f = full.AddState();
    full.SetFinal(f);
    for (EventId e = 0; e < 4; ++e) {
      full.AddTransition(0, L({{e, false}}), f);
    }
    full.AddTransition(f, Label(), f);
  }
  index.Insert(0, full, all_events);
  // Contract 1: cites only flightCanceled — lacks the cycle's
  // changeApproved, which every lasso of the query needs.
  Bitset fc_only(4);
  fc_only.Set(0);
  index.Insert(1, single(L({{0, false}})), fc_only);
  // Contract 2: miss + changeApproved — qualifies via the second prefix.
  Buchi two;
  Bitset miss_ca(4);
  miss_ca.Set(1);
  miss_ca.Set(2);
  {
    const StateId f = two.AddState();
    two.SetFinal(f);
    two.AddTransition(0, L({{1, false}}), f);
    two.AddTransition(0, L({{2, false}}), f);
    two.AddTransition(f, Label(), f);
  }
  index.Insert(2, two, miss_ca);

  const Bitset candidates = c.Evaluate(index);
  EXPECT_TRUE(candidates.Test(0));
  EXPECT_FALSE(candidates.Test(1));  // pruned: no changeApproved
  EXPECT_TRUE(candidates.Test(2));
}

TEST(PruningTest, MultipleFinalStatesUnion) {
  // Two disjoint lassos; a contract compatible with either must survive.
  Buchi ba;
  const StateId f1 = ba.AddState();
  const StateId f2 = ba.AddState();
  ba.SetFinal(f1);
  ba.SetFinal(f2);
  ba.AddTransition(0, L({{0, false}}), f1);
  ba.AddTransition(f1, L({{0, false}}), f1);
  ba.AddTransition(0, L({{1, false}}), f2);
  ba.AddTransition(f2, L({{1, false}}), f2);
  const Condition c = ExtractPruningCondition(ba);
  EXPECT_EQ(c.kind(), Condition::Kind::kOr);
}

TEST(PruningTest, SizeCapDegradesToTrue) {
  // A long alternating chain would produce a large condition; with a tiny
  // cap the extractor must fall back to TRUE (sound, prunes nothing).
  Buchi ba;
  StateId prev = 0;
  for (int i = 0; i < 10; ++i) {
    const StateId a = ba.AddState();
    const StateId b = ba.AddState();
    ba.AddTransition(prev, L({{0, false}}), a);
    ba.AddTransition(prev, L({{1, false}}), b);
    const StateId join = ba.AddState();
    ba.AddTransition(a, L({{2, false}}), join);
    ba.AddTransition(b, L({{3, false}}), join);
    prev = join;
  }
  ba.SetFinal(prev);
  ba.AddTransition(prev, L({{0, false}}), prev);
  PruningOptions tiny;
  tiny.max_condition_size = 3;
  const Condition c = ExtractPruningCondition(ba, tiny);
  EXPECT_LE(c.Size(), 4u);  // degraded, not exponential
}

TEST(PruningTest, FinalOverflowIsReported) {
  // Two disjoint lassos: each lasso condition (one node) fits a cap of 2,
  // their disjunction (three nodes) does not.
  Buchi ba;
  const StateId f1 = ba.AddState();
  const StateId f2 = ba.AddState();
  ba.SetFinal(f1);
  ba.SetFinal(f2);
  ba.AddTransition(0, L({{0, false}}), f1);
  ba.AddTransition(f1, L({{0, false}}), f1);
  ba.AddTransition(0, L({{1, false}}), f2);
  ba.AddTransition(f2, L({{1, false}}), f2);
  PruningOptions capped;
  capped.max_condition_size = 2;
  bool overflowed = false;
  EXPECT_EQ(ExtractPruningCondition(ba, capped, &overflowed).kind(),
            Condition::Kind::kTrue);
  EXPECT_TRUE(overflowed);
  EXPECT_EQ(ExtractPruningCondition(ba, {}, &overflowed).Size(), 3u);
  EXPECT_FALSE(overflowed);
}

TEST(PruningTest, StatePathModeIsSoundOnDiamond) {
  // Two parallel prefixes a / b into a final loop on c: both modes must keep
  // contracts compatible with either prefix.
  Buchi ba;
  const StateId mid_a = ba.AddState();
  const StateId mid_b = ba.AddState();
  const StateId fin = ba.AddState();
  ba.SetFinal(fin);
  ba.AddTransition(0, L({{0, false}}), mid_a);
  ba.AddTransition(0, L({{1, false}}), mid_b);
  ba.AddTransition(mid_a, L({{2, false}}), fin);
  ba.AddTransition(mid_b, L({{2, false}}), fin);
  ba.AddTransition(fin, L({{3, false}}), fin);
  for (auto mode : {PathConditionMode::kCondensation,
                    PathConditionMode::kMemoizedStatePaths}) {
    PruningOptions options;
    options.path_mode = mode;
    const Condition c = ExtractPruningCondition(ba, options);
    Vocabulary vocab({"a", "b", "c", "d"});
    const std::string s = c.ToString(vocab);
    EXPECT_NE(s.find("S(a)"), std::string::npos) << s;
    EXPECT_NE(s.find("S(b)"), std::string::npos) << s;
    EXPECT_NE(s.find("S(d)"), std::string::npos) << s;  // cycle label
  }
}

TEST(PruningTest, BoundedCyclesTightensFigure2d) {
  // On Figure 2d the complete cycle condition also demands requestChange,
  // which the incoming-only approximation misses.
  Buchi ba;
  const StateId s2 = ba.AddState();
  const StateId s3 = ba.AddState();
  const StateId s4 = ba.AddState();
  ba.SetFinal(s2);
  ba.AddTransition(0, L({{0, false}}), s2);       // flightCanceled
  ba.AddTransition(s2, Label(), s3);              // true
  ba.AddTransition(s3, L({{3, false}}), s4);      // requestChange
  ba.AddTransition(s4, L({{2, false}}), s2);      // changeApproved
  Vocabulary vocab({"fc", "miss", "ca", "rc"});

  PruningOptions approx;
  const Condition c_approx = ExtractPruningCondition(ba, approx);
  EXPECT_EQ(c_approx.ToString(vocab).find("S(rc)"), std::string::npos);

  PruningOptions complete;
  complete.cycle_mode = CycleConditionMode::kBoundedCycles;
  const Condition c_complete = ExtractPruningCondition(ba, complete);
  const std::string s = c_complete.ToString(vocab);
  EXPECT_NE(s.find("S(rc)"), std::string::npos) << s;
  EXPECT_NE(s.find("S(ca)"), std::string::npos) << s;
}

TEST(PruningTest, BoundedCyclesFallsBackOnHugeScc) {
  // An SCC larger than max_cycle_length must fall back (not silently drop
  // long cycles — that would break necessity).
  Buchi ba;
  std::vector<StateId> ring{0};
  for (int i = 1; i < 20; ++i) ring.push_back(ba.AddState());
  ba.SetFinal(0);
  for (size_t i = 0; i < ring.size(); ++i) {
    ba.AddTransition(ring[i], L({{0, false}}), ring[(i + 1) % ring.size()]);
  }
  PruningOptions options;
  options.cycle_mode = CycleConditionMode::kBoundedCycles;
  options.max_cycle_length = 4;
  const Condition c = ExtractPruningCondition(ba, options);
  // Fallback = incoming approximation: still demands the ring label.
  Vocabulary vocab({"a"});
  EXPECT_NE(c.ToString(vocab).find("S(a)"), std::string::npos);
}

struct PruningModeParam {
  const char* name;
  PathConditionMode path;
  CycleConditionMode cycle;
};

class PruningSoundnessTest
    : public ::testing::TestWithParam<PruningModeParam> {};

/// The master soundness property (§4.1): every contract that permits the
/// query must be in the candidate set computed from the pruning condition —
/// for every mode combination.
TEST_P(PruningSoundnessTest, CandidatesContainAllPermittingContracts) {
  const size_t kEvents = 3;
  ltl::FormulaFactory fac;
  Vocabulary vocab = ctdb::testing::TestVocabulary(kEvents);
  Rng rng(987123);

  struct ContractData {
    Buchi ba;
    Bitset events;
  };
  std::vector<ContractData> contracts;
  PrefilterIndex index;
  for (uint32_t id = 0; id < 30; ++id) {
    const ltl::Formula* cf =
        ctdb::testing::RandomFormula(&rng, &fac, kEvents, 3);
    auto ba = translate::LtlToBuchi(cf, &fac);
    ASSERT_TRUE(ba.ok());
    ContractData c;
    c.ba = std::move(*ba);
    cf->CollectEvents(&c.events);
    c.events.Resize(kEvents);
    index.Insert(id, c.ba, c.events);
    contracts.push_back(std::move(c));
  }

  PruningOptions options;
  options.path_mode = GetParam().path;
  options.cycle_mode = GetParam().cycle;

  int permitted_total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const ltl::Formula* qf =
        ctdb::testing::RandomFormula(&rng, &fac, kEvents, 3);
    auto qba = translate::LtlToBuchi(qf, &fac);
    ASSERT_TRUE(qba.ok());
    const Condition condition = ExtractPruningCondition(*qba, options);
    const Bitset candidates = condition.Evaluate(index);
    for (uint32_t id = 0; id < contracts.size(); ++id) {
      if (core::Permits(contracts[id].ba, contracts[id].events, *qba)) {
        ++permitted_total;
        EXPECT_TRUE(candidates.Test(id))
            << "query " << qf->ToString(vocab) << " permitted by contract "
            << id << " but pruned";
      }
    }
  }
  EXPECT_GT(permitted_total, 50);  // the property wasn't vacuous
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PruningSoundnessTest,
    ::testing::Values(
        PruningModeParam{"condensation_incoming",
                         PathConditionMode::kCondensation,
                         CycleConditionMode::kIncomingApprox},
        PruningModeParam{"condensation_cycles",
                         PathConditionMode::kCondensation,
                         CycleConditionMode::kBoundedCycles},
        PruningModeParam{"statepaths_incoming",
                         PathConditionMode::kMemoizedStatePaths,
                         CycleConditionMode::kIncomingApprox},
        PruningModeParam{"statepaths_cycles",
                         PathConditionMode::kMemoizedStatePaths,
                         CycleConditionMode::kBoundedCycles}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace ctdb::index

// The differential engine itself: a clean run over several seeds must report
// zero mismatches, and every FaultInjection hook must make exactly its own
// oracle fire — the "testing the tester" requirement. If one of these fault
// tests ever goes green-on-clean, the corresponding oracle has stopped
// looking at real data.

#include "testing/differential.h"

#include <gtest/gtest.h>

namespace ctdb::testing {
namespace {

DiffOptions SmallOptions() {
  DiffOptions options;
  options.seed = 7;
  options.iters = 3;
  options.contracts = 4;
  options.queries = 2;
  options.words_per_formula = 4;
  return options;
}

bool AnyOracle(const DiffReport& report, const std::string& oracle) {
  for (const DiffMismatch& m : report.mismatches) {
    if (m.oracle == oracle) return true;
  }
  return false;
}

TEST(DifferentialTest, CleanRunHasNoMismatches) {
  DiffOptions options = SmallOptions();
  options.iters = 5;
  const DiffReport report = RunDifferential(options);
  for (const DiffMismatch& m : report.mismatches) {
    ADD_FAILURE() << FormatMismatch(m);
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.iterations, 5u);
  EXPECT_GT(report.checks, 100u);
}

TEST(DifferentialTest, SameSeedReproducesSameCheckCount) {
  const DiffReport a = RunDifferential(SmallOptions());
  const DiffReport b = RunDifferential(SmallOptions());
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.mismatches.size(), b.mismatches.size());
}

TEST(DifferentialTest, DetectsCorruptUnindexedAnswer) {
  DiffOptions options = SmallOptions();
  options.faults.corrupt_unindexed = true;
  const DiffReport report = RunDifferential(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyOracle(report, "indexed-vs-unindexed"));
}

TEST(DifferentialTest, DetectsCorruptBatchAnswer) {
  DiffOptions options = SmallOptions();
  options.faults.corrupt_batch = true;
  const DiffReport report = RunDifferential(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyOracle(report, "batch-vs-serial"));
}

TEST(DifferentialTest, DetectsCorruptThreadedAnswer) {
  DiffOptions options = SmallOptions();
  options.faults.corrupt_threaded = true;
  const DiffReport report = RunDifferential(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyOracle(report, "threaded-vs-serial"));
}

TEST(DifferentialTest, DetectsCorruptReloadedAnswer) {
  DiffOptions options = SmallOptions();
  options.faults.corrupt_reloaded = true;
  const DiffReport report = RunDifferential(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyOracle(report, "persistence-roundtrip"));
}

TEST(DifferentialTest, DetectsFlippedReferenceVerdict) {
  DiffOptions options = SmallOptions();
  options.faults.flip_reference = true;
  const DiffReport report = RunDifferential(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyOracle(report, "reference-permission"));
}

TEST(DifferentialTest, DetectsBrokenMetamorphicTransform) {
  DiffOptions options = SmallOptions();
  options.iters = 40;  // the F/G swap needs a query whose verdict flips
  options.faults.break_metamorphic = true;
  const DiffReport report = RunDifferential(options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyOracle(report, "metamorphic"));
}

MonitorDiffOptions SmallMonitorOptions() {
  MonitorDiffOptions options;
  options.seed = 7;
  options.iters = 10;
  return options;
}

TEST(MonitorDifferentialTest, CleanRunHasNoMismatches) {
  const DiffReport report = RunMonitorDifferential(SmallMonitorOptions());
  for (const DiffMismatch& m : report.mismatches) {
    ADD_FAILURE() << FormatMismatch(m);
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.iterations, 10u);
  EXPECT_GT(report.checks, 50u);
}

TEST(MonitorDifferentialTest, SameSeedReproducesSameCheckCount) {
  const DiffReport a = RunMonitorDifferential(SmallMonitorOptions());
  const DiffReport b = RunMonitorDifferential(SmallMonitorOptions());
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.mismatches.size(), b.mismatches.size());
}

TEST(MonitorDifferentialTest, DetectsFlippedNaiveVerdict) {
  MonitorDiffOptions options = SmallMonitorOptions();
  options.flip_naive = true;
  const DiffReport report = RunMonitorDifferential(options);
  ASSERT_FALSE(report.ok());
  // The fault is injected into the naive oracle only, so exactly the
  // incremental-vs-naive comparison — not the self-consistency oracles —
  // must catch it.
  EXPECT_TRUE(AnyOracle(report, "incremental-vs-naive"));
  for (const DiffMismatch& m : report.mismatches) {
    EXPECT_EQ(m.oracle, "incremental-vs-naive") << FormatMismatch(m);
  }
}

TEST(DifferentialTest, MismatchCarriesReproductionSeed) {
  DiffOptions options = SmallOptions();
  options.faults.corrupt_batch = true;
  const DiffReport report = RunDifferential(options);
  ASSERT_FALSE(report.ok());
  const DiffMismatch& m = report.mismatches.front();
  EXPECT_GE(m.seed, options.seed);
  const std::string line = FormatMismatch(m);
  EXPECT_NE(line.find("--iters=1"), std::string::npos) << line;
  EXPECT_NE(line.find("--seed="), std::string::npos) << line;
}

TEST(DifferentialTest, ReproduceCommandNamesTheMode) {
  auto line = [](DiffMode mode) {
    return FormatMismatch(DiffMismatch{mode, 5, "as-of-batch", "detail"});
  };
  EXPECT_EQ(line(DiffMode::kPipeline),
            "oracle=as-of-batch seed=5: detail (reproduce: ctdb_diff_fuzz "
            "--iters=1 --seed=5)");
  EXPECT_EQ(line(DiffMode::kLifecycle),
            "oracle=as-of-batch seed=5: detail (reproduce: ctdb_diff_fuzz "
            "--lifecycle --iters=1 --seed=5)");
  EXPECT_EQ(line(DiffMode::kMonitor),
            "oracle=as-of-batch seed=5: detail (reproduce: ctdb_diff_fuzz "
            "--monitor --iters=1 --seed=5)");
}

TEST(MonitorDifferentialTest, MismatchCarriesMonitorMode) {
  MonitorDiffOptions options = SmallMonitorOptions();
  options.flip_naive = true;
  const DiffReport report = RunMonitorDifferential(options);
  ASSERT_FALSE(report.ok());
  for (const DiffMismatch& m : report.mismatches) {
    EXPECT_EQ(m.mode, DiffMode::kMonitor) << FormatMismatch(m);
  }
}

}  // namespace
}  // namespace ctdb::testing

// The differential-testing engine behind tools/fuzz's ctdb_diff_fuzz and the
// injected-bug test suite. Each iteration builds a random contract database
// and query workload from one seed and cross-checks the composed pipeline
// (parse → rewrite → translate → index → permission → persistence) through
// independent oracles:
//
//   indexed-vs-unindexed   prefilter + projections vs. the §3 full scan
//   batch-vs-serial        QueryBatch vs. one Query per text
//   threaded-vs-serial     threads=N vs. threads=1
//   persistence-roundtrip  save → load → identical answers
//   reference-permission   core::Permits vs. testing::ReferencePermits
//   metamorphic            EquivalenceTransforms preserve verdicts
//   print-parse-roundtrip  Parse(ToString(f)) is f (hash-consed identity)
//   evaluator-vs-automaton Evaluate(f, w) ⇔ BA(f) accepts w
//
// Every mismatch carries its differential and iteration seed;
// `ctdb_diff_fuzz [--lifecycle|--monitor] --iters=1 --seed=<seed>`
// reproduces it. FaultInjection deliberately corrupts one
// side of a chosen oracle so tests can prove the oracle detects real faults.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ctdb::testing {

/// Testing-the-tester hooks: each flag corrupts one side of one oracle, so a
/// clean engine must report a mismatch for it (and only it).
struct FaultInjection {
  bool corrupt_unindexed = false;   ///< phantom match in the full-scan answer
  bool corrupt_batch = false;       ///< phantom match in a QueryBatch answer
  bool corrupt_threaded = false;    ///< phantom match in the threads>1 answer
  bool corrupt_reloaded = false;    ///< phantom match after save/load
  bool flip_reference = false;      ///< negate one ReferencePermits verdict
  bool break_metamorphic = false;   ///< add the F/G-swapping "transform"

  bool Any() const {
    return corrupt_unindexed || corrupt_batch || corrupt_threaded ||
           corrupt_reloaded || flip_reference || break_metamorphic;
  }
};

/// Engine configuration. Defaults produce small, dense universes where most
/// oracles fire on every iteration yet one iteration stays well under 100ms.
struct DiffOptions {
  uint64_t seed = 1;
  size_t iters = 100;
  /// Universe shape (iteration i uses seed `seed + i`).
  size_t contracts = 5;
  size_t contract_patterns = 2;
  size_t queries = 3;
  size_t query_patterns = 1;
  size_t vocabulary_size = 8;
  /// Concurrency of the parallel side of threaded-vs-serial.
  size_t threads = 3;
  /// Random-word probes per formula for the metamorphic/evaluator oracles.
  size_t words_per_formula = 6;
  /// Stop after this many mismatches.
  size_t max_mismatches = 8;
  FaultInjection faults;
};

/// Which differential a mismatch came from: RunDifferential,
/// RunLifecycleDifferential or RunMonitorDifferential (ctdb_diff_fuzz with
/// no mode flag, --lifecycle or --monitor).
enum class DiffMode { kPipeline, kLifecycle, kMonitor };

/// One detected disagreement.
struct DiffMismatch {
  DiffMode mode = DiffMode::kPipeline;
  uint64_t seed = 0;      ///< iteration seed (reproduces with --iters=1)
  std::string oracle;     ///< which cross-check fired
  std::string detail;
};

/// Outcome of a RunDifferential sweep.
struct DiffReport {
  size_t iterations = 0;
  size_t checks = 0;  ///< individual comparisons performed
  std::vector<DiffMismatch> mismatches;
  bool ok() const { return mismatches.empty(); }
};

/// Runs `options.iters` seeded iterations of every oracle.
DiffReport RunDifferential(const DiffOptions& options);

/// Configuration of the lifecycle / time-travel differential
/// (RunLifecycleDifferential).
struct LifecycleDiffOptions {
  uint64_t seed = 1;
  size_t iters = 50;
  /// Mutations per iteration: a random Register / Unregister / Replace mix
  /// (registration-heavy so the live set keeps material to retire).
  size_t mutations = 24;
  size_t contract_patterns = 2;
  size_t queries = 3;
  size_t query_patterns = 1;
  size_t vocabulary_size = 8;
  /// Clock ticks probed per iteration (evenly spaced, always including the
  /// final state); each probed tick rebuilds a fresh prefix database.
  size_t sample_ticks = 6;
  size_t max_mismatches = 8;
};

/// \brief Cross-checks time travel against re-execution.
///
/// Each iteration evolves one database through a random lifecycle stream,
/// recording the exact live set (id, name, ltl) after every mutation. For
/// sampled ticks s it then checks, per query:
///
///   as-of-vs-prefix     QueryAsOf(s) == a fresh database registered with
///                       exactly the contracts live at s (ids re-mapped
///                       through the model)
///   as-of-witnesses     every as-of match carries a witness satisfying
///                       the query formula
///   as-of-batch         the sampled queries as one QueryAsOf batch on 4
///                       threads answer as the single queries, witnesses
///                       included
///   lifecycle-persist   save → load of the evolved database preserves
///                       every sampled QueryAsOf answer
DiffReport RunLifecycleDifferential(const LifecycleDiffOptions& options);

/// Configuration of the streaming-monitor differential
/// (RunMonitorDifferential).
struct MonitorDiffOptions {
  uint64_t seed = 1;
  size_t iters = 50;
  /// Universe shape: event-pattern contracts (workload/events.h) over a
  /// shared vocabulary.
  size_t contracts = 4;
  size_t contract_patterns = 1;
  size_t vocabulary_size = 8;
  /// Stream shape per iteration. Batches alternate between the contracts'
  /// vocabulary and a disjoint one, so both the stepping and the
  /// alphabet-pruning paths run every iteration.
  size_t batches = 4;
  size_t batch_events = 6;
  /// Random lasso extensions probed per violated contract.
  size_t lassos_per_violation = 3;
  size_t max_mismatches = 8;
  /// Fault injection: negate one naive verdict per iteration, proving the
  /// incremental-vs-naive oracle detects real faults.
  bool flip_naive = false;
};

/// \brief Cross-checks the streaming monitor against independent oracles.
///
/// Each iteration registers random event-pattern contracts, opens monitor
/// sessions on one snapshot and drives them with one random trace:
///
///   incremental-vs-naive  after every batch, each contract's stepper
///                         verdict equals a naive recomputation (std::set
///                         state sets, per-event label scan, fixpoint live
///                         marking — no bitsets, no dedup, no pruning)
///   delta-vs-summary      applying each append's deltas to the previous
///                         verdict map reproduces the session summary
///   batch-vs-single       appending the trace one instant at a time ends
///                         in the same summary as batched appends
///   prune-vs-noprune      StreamOptions::prune only skips work: verdicts
///                         are identical with pruning disabled
///   violated-soundness    a violated contract's formula evaluates false
///                         (ltl::Evaluate) on random lasso extensions of
///                         the observed trace — "no extension satisfies"
DiffReport RunMonitorDifferential(const MonitorDiffOptions& options);

/// "oracle=<o> seed=<s>: <detail> (reproduce: ctdb_diff_fuzz [--lifecycle |
/// --monitor] --iters=1 --seed=<s>)", the flag naming `m.mode`.
std::string FormatMismatch(const DiffMismatch& m);

}  // namespace ctdb::testing

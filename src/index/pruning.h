// Pruning-condition extraction from a query BA (Section 4.1, Algorithm 1).
//
// For every final state t that can knot a lasso (i.e. t lies in a cyclic
// SCC), the lasso pruning condition is
//     cycle_condition(t) ∧ path_condition(t)
// and the query's condition is the disjunction over all such t. A query with
// no knottable final state yields FALSE (its language is empty, so no
// contract can permit it).
//
// Two implementations are provided for each half, selectable for the
// §4.1.1 comparison ("the approximation has nearly the same number of false
// positives as the complete pruning conditions"):
//
// path_condition —
//   * kCondensation (default): memoized traversal of the SCC condensation.
//     Intra-SCC labels are never *necessary* (any entry point may be used —
//     the generalization of the paper's "self-loops are not strictly
//     necessary" argument), so the computation is linear on a DAG.
//   * kMemoizedStatePaths: the paper's Algorithm 1 function
//     compute_path_from_init with the memoization scheme it describes:
//     per-state conditions, recursion cycles cut by substituting TRUE
//     (which only weakens the condition — sound).
//
// cycle_condition —
//   * kIncomingApprox (default): the paper's implemented approximation —
//     disjunction of the labels on t's incoming transitions from inside its
//     SCC (Algorithm 1, cycle_condition).
//   * kBoundedCycles: the "complete" variant — disjunction over simple
//     cycles through t (the conjunction of each cycle's labels), enumerated
//     by bounded DFS; falls back to the approximation when the bounds are
//     hit (sound).
//
// Whatever the modes, conditions are necessary for permission: every
// contract permitting the query evaluates inside the candidate set. If a
// condition tree grows past the size cap it degrades to TRUE, which prunes
// nothing and preserves soundness.

#pragma once

#include "automata/buchi.h"
#include "index/condition.h"

namespace ctdb::index {

/// How path conditions (init → knot) are computed.
enum class PathConditionMode : uint8_t {
  kCondensation,
  kMemoizedStatePaths,
};

/// How cycle conditions (through the knot) are computed.
enum class CycleConditionMode : uint8_t {
  kIncomingApprox,
  kBoundedCycles,
};

/// Extraction limits and mode selection.
struct PruningOptions {
  PathConditionMode path_mode = PathConditionMode::kCondensation;
  CycleConditionMode cycle_mode = CycleConditionMode::kIncomingApprox;
  /// Conditions larger than this many nodes collapse to TRUE.
  size_t max_condition_size = 4096;
  /// kBoundedCycles limits: maximum simple-cycle length explored and maximum
  /// number of cycles collected per knot before falling back.
  size_t max_cycle_length = 12;
  size_t max_cycles_per_knot = 64;
};

/// \brief Computes the pruning condition of `query` (Algorithm 1). When
/// `overflowed` is given it is set to whether the condition outgrew
/// `options.max_condition_size` and was replaced by TRUE.
Condition ExtractPruningCondition(const automata::Buchi& query,
                                  const PruningOptions& options = {},
                                  bool* overflowed = nullptr);

}  // namespace ctdb::index

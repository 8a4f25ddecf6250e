// The permission checking algorithm (Sections 3.1, 6.2.2, 6.2.4).
//
// A contract C permits a query q iff the BAs representing them admit a
// *simultaneous lasso path* (Definition 7 / Theorem 4): synchronized lasso
// paths with pointwise-compatible labels, whose cycle passes through a
// query-final pair (the knot) and a contract-final pair.
//
// Two equivalent checkers are provided:
//  * kNestedDfs — the paper's Algorithm 2: an outer depth-first search over
//    reachable product pairs; at every seed (a pair whose query state is
//    final) a memoized inner search looks for a cycle back to the seed
//    containing a contract-final pair. The inner search explores
//    (pair, seen-contract-final) nodes, visiting each at most once per seed —
//    the "simple memoization scheme" of §6.2.2.
//  * kScc — product-graph SCC analysis: permission holds iff some reachable
//    cyclic SCC of the product contains both a contract-final and a
//    query-final pair. Linear in the product; used for cross-validation and
//    as an ablation. The product is constructed *on the fly* during the
//    Tarjan DFS and the check returns the moment an accepting cyclic SCC
//    closes — permitted contracts never pay for the unexplored remainder of
//    the product.
//
// The seeds optimization (§6.2.4) restricts inner searches to pairs whose
// contract state lies on a contract cycle through a contract-final state.

#pragma once

#include <cstdint>

#include "automata/buchi.h"
#include "util/bitset.h"

namespace ctdb::core {

/// Which permission decision procedure to run.
enum class PermissionAlgorithm : uint8_t {
  kNestedDfs,  ///< Algorithm 2 (paper-faithful)
  kScc,        ///< product SCC emptiness variant
};

/// Knobs for Permits().
struct PermissionOptions {
  PermissionAlgorithm algorithm = PermissionAlgorithm::kNestedDfs;
  /// Apply the §6.2.4 seeds restriction (kNestedDfs only).
  bool use_seeds = true;
};

/// Counters reported by a permission check.
struct PermissionStats {
  uint64_t pairs_visited = 0;    ///< outer-search product pairs
  uint64_t cycle_searches = 0;   ///< inner searches launched (seeds tried)
  uint64_t cycle_pairs = 0;      ///< inner-search node visits
  void MergeFrom(const PermissionStats& other) {
    pairs_visited += other.pairs_visited;
    cycle_searches += other.cycle_searches;
    cycle_pairs += other.cycle_pairs;
  }
};

/// \brief Precomputed per-contract information for the seeds optimization:
/// the set of contract states lying on a cycle through a final state.
/// Computed once at registration time (§6.2.4).
Bitset ComputeSeedStates(const automata::Buchi& contract);

/// \brief Decides whether the contract represented by `contract` (citing
/// exactly `contract_events`) permits the query represented by `query`.
///
/// `seed_states`, if non-null, must be ComputeSeedStates(contract); when null
/// and the algorithm needs it, it is computed on the fly.
bool Permits(const automata::Buchi& contract, const Bitset& contract_events,
             const automata::Buchi& query,
             const PermissionOptions& options = {},
             const Bitset* seed_states = nullptr,
             PermissionStats* stats = nullptr);

}  // namespace ctdb::core

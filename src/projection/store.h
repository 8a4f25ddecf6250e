// The precomputed simplified-BA store (Sections 5.2 and 5.3).
//
// At registration time the store computes, for subsets of the contract's
// cited label events, the coarsest bisimulation partition of the contract BA
// with labels projected onto that subset (both polarities of each retained
// event — a sound superset of the exact literal set Definition 8 asks for,
// see DESIGN.md). Partitions are deduplicated: in practice only a small
// fraction of subsets yield distinct partitions (the paper reports ~5%).
//
// The precompute works on word labels: each distinct label becomes a pair
// of 64-bit (positive, negative) masks over the cited events, and a label's
// class under subset M is that pair masked by M, so no label is copied or
// projected per subset. Subsets are visited in lattice order. The full set
// is refined first; then most subsets need no refinement:
//  - a subset whose labels fall into as many classes as under an immediate
//    sub-subset induces the same labelled transition system, so it takes
//    that sub-subset's partition;
//  - otherwise refinement starts from the meet (common refinement) of the
//    immediate sub-subsets' partitions, each of which the subset's
//    partition refines (Theorem 3: the partition for L' ⊇ L refines the
//    partition for L);
//  - a meet with as many blocks as the full set's partition is that
//    partition, since the full set's partition refines every other.
// Contracts citing more than 64 events keep no projections.
//
// Storage follows §5.2: only the partitions (block lists) are kept; quotient
// automata are materialized lazily at query time and cached. The lazy cache
// is internally synchronized (sharded, built once per key under the shard
// lock), so ForQueryEvents is const and safe to call from concurrent query
// threads sharing one contract — the only mutable state on the read path.

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "automata/bisimulation.h"
#include "automata/buchi.h"
#include "util/bitset.h"

namespace ctdb::util {
class ThreadPool;
}

namespace ctdb::projection {

/// Precomputation limits (the §5.2 escape hatch for complex contracts).
struct ProjectionStoreOptions {
  /// Enumerate every subset of the contract's cited events when there are at
  /// most this many (2^n subsets).
  size_t max_enumerated_events = 12;
  /// Above that, enumerate only subsets up to this size, plus the full set.
  size_t max_subset_size = 3;
};

/// Precomputation statistics (for the §7.4 report).
struct ProjectionStats {
  size_t cited_events = 0;
  size_t subsets_computed = 0;
  size_t distinct_partitions = 0;
  size_t original_states = 0;
  /// States of the quotient under the full-event-set partition (the
  /// language-preserving minimum the store ever uses).
  size_t full_partition_blocks = 0;
  size_t partition_memory_bytes = 0;
};

/// \brief All precomputed projections of one contract BA.
class ContractProjections {
 public:
  ContractProjections();
  ~ContractProjections();

  /// Move-only: the quotient cache owns synchronization state.
  ContractProjections(ContractProjections&&) noexcept;
  ContractProjections& operator=(ContractProjections&&) noexcept;
  ContractProjections(const ContractProjections&) = delete;
  ContractProjections& operator=(const ContractProjections&) = delete;

  /// Runs the lattice-order precomputation over `ba`. With a non-null
  /// `pool`, the partitions of each lattice level (masks of equal popcount
  /// — mutually independent, since a mask reads only its immediate
  /// sub-masks and the full set's partition) are computed in parallel on
  /// the pool; results are committed in mask order, so the store is
  /// identical to the serial one. A contract citing more than 64 events
  /// gets no projections, as with WrapOnly.
  static ContractProjections Precompute(
      automata::Buchi ba, const ProjectionStoreOptions& options = {},
      util::ThreadPool* pool = nullptr);

  /// Wraps `ba` with no precomputed projections: ForQueryEvents always
  /// returns the original automaton (used when the optimization is off).
  static ContractProjections WrapOnly(automata::Buchi ba);

  /// \brief The simplified automaton to use for a query whose labels cite
  /// `query_label_events`: the quotient of the smallest precomputed
  /// projection that retains every contract literal the compatibility test
  /// can observe. Lazily built and cached; the cache is internally
  /// synchronized, so concurrent calls are safe and each quotient is built
  /// exactly once. Returned references stay valid for the store's lifetime.
  ///
  /// Always sound: falls back to the full-event-set (language-preserving
  /// minimized) automaton when no smaller projection applies, and returns
  /// the registered automaton when the store holds no projections.
  const automata::Buchi& ForQueryEvents(const Bitset& query_label_events) const;

  /// The registered (unprojected) automaton.
  const automata::Buchi& original() const { return ba_; }

  ProjectionStats stats() const { return stats_; }

 private:
  using EventMask = uint64_t;
  static constexpr size_t kMaxMaskEvents = 64;

  /// Sharded mutex-protected lazy cache of quotient automata; defined in
  /// store.cc. Allocated by Precompute (the only path that leaves
  /// partitions_ non-empty, which is what ForQueryEvents gates on).
  struct QuotientCache;

  /// Translates global event ids into a mask over `event_list_`; events
  /// outside the contract are dropped (they cannot affect compatibility with
  /// the contract's labels).
  EventMask MaskOf(const Bitset& events) const;
  Bitset EventsOf(EventMask mask) const;

  automata::Buchi ba_;
  std::vector<EventId> event_list_;  ///< cited label events, ascending
  std::unordered_map<EventMask, uint32_t> partition_of_;  ///< mask → index
  std::vector<automata::Partition> partitions_;           ///< deduplicated
  EventMask full_mask_ = 0;
  std::unique_ptr<QuotientCache> quotients_;
  ProjectionStats stats_;
};

}  // namespace ctdb::projection

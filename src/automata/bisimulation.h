// Bisimulation partition refinement (Definition 9 and Section 5.3).
//
// Computes the coarsest partition of a BA's states such that two states in a
// block (1) agree on finality and (2) have matching outgoing transitions
// (same label, into the same block).
//
// There is one refinement loop, RefineToBisimulation. It sees labels only
// as class ids: transitions whose labels share a class count as equally
// labelled. CoarsestBisimulation gives every distinct label its own class.
// The projection store (projection/store.h) gives labels that agree on a
// retained event set the same class, which runs the loop on π_L(A) without
// building it.
//
// The loop is signature-based (Kanellakis–Smolka): each round recomputes,
// per state, the set of (label class, target-block) pairs and splits blocks
// whose states disagree. It starts from a given partition, which supports
// the lattice-order precomputation of Section 5.3 (Theorem 3: the partition
// for L' ⊇ L refines the partition for L, so refinement may start from it).

#pragma once

#include <cstdint>
#include <vector>

#include "automata/buchi.h"

namespace ctdb::automata {

/// \brief A partition of states into blocks: `block_of[s]` is the block id of
/// state s. Canonical form: block ids are dense and assigned in order of
/// first occurrence (state 0's block is 0, the next distinct block is 1, ...).
struct Partition {
  std::vector<uint32_t> block_of;
  uint32_t block_count = 0;

  bool operator==(const Partition& other) const {
    return block_of == other.block_of;
  }

  /// Renumbers blocks into canonical order-of-first-occurrence form.
  void Canonicalize();

  /// True iff this partition refines `coarser` (every block of this is
  /// contained in a block of `coarser`).
  bool Refines(const Partition& coarser) const;

  /// The common refinement of this and `other`, canonical: two states share
  /// a block iff they share one in both.
  Partition Meet(const Partition& other) const;

  /// The partition with every state in its own block.
  static Partition Discrete(size_t n);
  /// The partition separating final from non-final states of `ba`.
  static Partition FinalSplit(const Buchi& ba);
};

/// \brief A BA's transitions with each label replaced by a dense id, grouped
/// by source state: state s's transitions are [first[s], first[s + 1]) of
/// `label` and `to`.
struct LabeledTransitions {
  std::vector<uint32_t> first;
  std::vector<uint32_t> label;
  std::vector<StateId> to;

  size_t StateCount() const { return first.size() - 1; }

  /// Lists `ba`'s transitions. Label ids are assigned in order of first
  /// occurrence; `labels[id]` is the label with that id.
  static LabeledTransitions Of(const Buchi& ba, std::vector<Label>* labels);
};

/// \brief The coarsest bisimulation partition refining `start`, where a
/// transition whose label id is l counts as labelled `label_class[l]`.
/// `start` must itself refine the final split.
Partition RefineToBisimulation(const LabeledTransitions& moves,
                               const std::vector<uint32_t>& label_class,
                               Partition start);

/// \brief Computes the coarsest bisimulation partition of `ba` with every
/// distinct label its own class (Definition 9). Refinement starts from
/// `start` when non-null, which must itself refine the final split, and from
/// the final/non-final split otherwise.
Partition CoarsestBisimulation(const Buchi& ba,
                               const Partition* start = nullptr);

}  // namespace ctdb::automata

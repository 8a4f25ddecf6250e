// Incremental finite-trace evaluation of one contract automaton over a
// stream (DESIGN.md §15), split in two:
//
//   ContractMonitor  the immutable stepping tables of one contract version,
//                    built by the first stream open that pins the version
//                    and shared read-only by every later session;
//   ContractStepper  one session's position in one contract: the NFA state
//                    set reachable on the stream prefix read so far (a util
//                    bitset over the contract BA's states) and its verdict.
//
// A step evaluates each distinct transition label against the snapshot
// once, then folds every enabled transition out of the current set into
// the next. Verdicts (monitor/types.h) fall out of two masks:
//
//   finals        accepting states — intersecting them means the prefix is
//                 accepted as a finite word (satisfied);
//   live          states from which a seed state (a state on a cycle
//                 through a final state, §6.2.4) is reachable — leaving
//                 them means no infinite extension is accepted (violated).
//
// `violated` takes precedence over `satisfied` when both hold (possible
// only for automata with accepting states outside every accepting cycle)
// and is absorbing: non-live states have only non-live successors, so a
// violated stepper freezes and stops paying for further events.
//
// Contract-silent instants — snapshots sharing no event with the contract's
// vocabulary — enable exactly the labels with no positive literal, the same
// for every such snapshot. StepSilent exploits that: it advances with the
// precomputed silent label set and stops at the first fixpoint, which is
// what lets the session skip whole batches for alphabet-disjoint contracts.

#pragma once

#include <cstdint>
#include <vector>

#include "base/run.h"
#include "broker/contract.h"
#include "monitor/types.h"
#include "util/bitset.h"

namespace ctdb::monitor {

/// \brief The immutable stepping tables of one contract version.
///
/// Owned by the contract version (broker::Contract), so it lives exactly as
/// long as any snapshot pinning that version.
class ContractMonitor {
 public:
  /// `contract`'s monitor, built by the first call for that version under
  /// the version's once-flag (a "monitor.build" span with `states`,
  /// `labels` and `bytes` attributes, one "monitor.builds" count);
  /// concurrent first calls build it once.
  static const ContractMonitor& Of(const broker::Contract& contract);

  uint32_t id() const { return contract_->id; }

  /// Events cited by the contract's specification (the pruning alphabet).
  const Bitset& cited_events() const { return contract_->events; }

  size_t state_count() const { return offsets_.size() - 1; }
  size_t label_count() const { return labels_.size(); }

  /// Heap bytes the tables retain (the contract's own data excluded).
  size_t MemoryUsage() const;

 private:
  friend class ContractStepper;

  /// One transition: (index into labels_, target state).
  struct Edge {
    uint32_t label;
    uint32_t to;
  };

  explicit ContractMonitor(const broker::Contract& contract);

  /// Sets in `*next` (cleared first) every target of a transition out of
  /// `from` whose label `enabled` flags.
  void Fold(const Bitset& from, const uint8_t* enabled, Bitset* next) const;

  /// Verdict on a prefix whose reachable set is `states`.
  StreamVerdict VerdictOf(const Bitset& states) const;

  const broker::Contract* contract_;

  /// Distinct transition labels; state s's transitions are
  /// edges_[offsets_[s], offsets_[s + 1]).
  std::vector<Label> labels_;
  std::vector<uint32_t> offsets_;
  std::vector<Edge> edges_;

  /// States from which some seed state is reachable (backward closure).
  Bitset live_;
  /// Per label: 1 iff it has no positive literal (enabled by silence).
  std::vector<uint8_t> silent_;

  /// Reachable set and verdict on the empty prefix.
  Bitset initial_;
  StreamVerdict initial_verdict_ = StreamVerdict::kUndetermined;
};

/// Scratch the steppers of one session share (steps run one at a time
/// under the session's lock): the next state set, grown on demand, and
/// per-label enable flags, sized by the session to its largest label count.
struct StepScratch {
  Bitset next;
  std::vector<uint8_t> enabled;
};

/// \brief One session's incremental state for one contract.
///
/// Not internally synchronized — the owning session serializes appends.
/// `monitor` must outlive the stepper (the session's pinned snapshot keeps
/// the contract version, and so its monitor, alive).
class ContractStepper {
 public:
  /// Starts on the empty prefix.
  explicit ContractStepper(const ContractMonitor& monitor);

  const ContractMonitor& monitor() const { return *monitor_; }
  uint32_t id() const { return monitor_->id(); }
  const Bitset& cited_events() const { return monitor_->cited_events(); }

  /// Verdict on the prefix read so far.
  StreamVerdict verdict() const { return verdict_; }

  /// True once the verdict can never change again (violated is absorbing).
  bool frozen() const { return verdict_ == StreamVerdict::kViolated; }

  /// Advances by one snapshot (event-id bitset over the database
  /// vocabulary). No-op when frozen.
  void Step(const Snapshot& snapshot, StepScratch* scratch);

  /// \brief Advances by up to `count` contract-silent instants.
  ///
  /// Semantically identical to `count` Step calls with snapshots disjoint
  /// from cited_events(); stops early once the state set is a fixpoint of
  /// the silent step (every further silent instant is a no-op). Returns the
  /// number of steps actually executed — the caller counts the remainder as
  /// pruned.
  uint64_t StepSilent(uint64_t count, StepScratch* scratch);

 private:
  /// One transition-relation application with the given per-label enable
  /// flags; returns true (and updates the verdict) when the set changed.
  bool Advance(const uint8_t* enabled, StepScratch* scratch);

  const ContractMonitor* monitor_;
  Bitset current_;  ///< reachable on the prefix read so far
  StreamVerdict verdict_;
  /// True once current_ is known to be a fixpoint of the silent step.
  bool silent_stable_ = false;
};

}  // namespace ctdb::monitor

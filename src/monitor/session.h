// One open event stream: a pinned database snapshot plus the incremental
// stepper of every contract visible at the pin (DESIGN.md §15). Each stepper
// walks its contract version's shared ContractMonitor, built by the first
// open that pins the version, so a later open only allocates the steppers.
//
// Snapshot isolation. Opening a session captures a DatabaseSnapshot and a
// system-period clock: `as_of` = 0 pins the latest state at open, any other
// value pins the historical contract set visible at that clock (the same
// VisibleAt axis as time-travel queries, DESIGN.md §14). Contracts
// registered, replaced or unregistered after the pin are invisible to the
// session for its whole lifetime — the shared_ptr'd snapshot keeps every
// pinned version (history included) alive.
//
// Alphabet pruning. Each append batch computes the union alphabet of its
// events once; a contract sharing no event with it sees only contract-silent
// instants, so its stepper takes the StepSilent fast path and typically
// skips the whole batch at a fixpoint. The citing-contract sets of the
// prefilter index (index/prefilter.h) justify the alphabet test: a contract
// appears in S(+e) ∪ S(−e) for every event e it cites (expansion E(γ)),
// so cited_events() disjoint from the batch alphabet proves no transition
// label can distinguish the batch from silence.

#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "broker/snapshot.h"
#include "monitor/stepper.h"
#include "monitor/types.h"
#include "util/result.h"

namespace ctdb::monitor {

/// \brief One open stream. Appends on one session are serialized by an
/// internal mutex; different sessions are fully independent.
class StreamSession {
 public:
  /// Pins `snapshot` at `options.as_of` (0 = the snapshot's latest clock)
  /// and starts a stepper per visible contract version on the version's
  /// monitor (built here if no earlier open pinned the version).
  /// InvalidArgument when `as_of` is below the snapshot's history retention
  /// floor.
  static Result<std::unique_ptr<StreamSession>> Open(
      std::shared_ptr<const broker::DatabaseSnapshot> snapshot,
      const StreamOptions& options);

  /// What Open pinned.
  StreamOpenInfo open_info() const {
    return {clock_, static_cast<uint32_t>(steppers_.size())};
  }

  /// Appends a batch of events, advancing every tracked contract, and
  /// reports the verdict changes since the previous append (sorted by
  /// contract id). The baseline is each contract's verdict on the empty
  /// prefix at open, so deltas carry exactly the changes events caused;
  /// Summary() always has the full current picture.
  StreamAppendResult Append(const EventBatch& events);

  /// Final summary: total events plus every tracked contract's verdict.
  StreamCloseInfo Summary() const;

  uint64_t clock() const { return clock_; }
  size_t tracked() const { return steppers_.size(); }

  /// The shared monitor the i-th tracked contract (ascending id) steps
  /// (tests / diagnostics).
  const ContractMonitor& monitor(size_t i) const {
    return steppers_[i].monitor();
  }

 private:
  StreamSession(std::shared_ptr<const broker::DatabaseSnapshot> snapshot,
                const StreamOptions& options, uint64_t clock,
                std::vector<const broker::Contract*> contracts);

  /// Keeps every tracked contract version (live or historical) alive.
  std::shared_ptr<const broker::DatabaseSnapshot> snapshot_;
  const StreamOptions options_;
  const uint64_t clock_;

  mutable std::mutex mutex_;
  std::vector<ContractStepper> steppers_;
  /// Verdict last reported per stepper (deltas are changes against this).
  std::vector<StreamVerdict> reported_;
  StepScratch scratch_;
  uint64_t events_ = 0;
};

}  // namespace ctdb::monitor

#include "monitor/session.h"

#include <algorithm>
#include <utility>

namespace ctdb::monitor {

Result<std::unique_ptr<StreamSession>> StreamSession::Open(
    std::shared_ptr<const broker::DatabaseSnapshot> snapshot,
    const StreamOptions& options) {
  uint64_t clock = options.as_of;
  std::vector<const broker::Contract*> contracts;
  if (clock == 0 || clock >= snapshot->sequence()) {
    // Latest (a clock at or past the snapshot's is clamped, mirroring
    // QueryOptions::as_of).
    clock = snapshot->sequence();
    for (uint32_t id = 0; id < snapshot->slot_count(); ++id) {
      if (const broker::Contract* c = snapshot->contract_or_null(id)) {
        contracts.push_back(c);
      }
    }
  } else {
    if (clock < snapshot->history().floor()) {
      return Status::InvalidArgument(
          "stream as_of " + std::to_string(clock) +
          " is below the history retention floor " +
          std::to_string(snapshot->history().floor()));
    }
    contracts = snapshot->VisibleAt(clock);
  }
  return std::unique_ptr<StreamSession>(new StreamSession(
      std::move(snapshot), options, clock, std::move(contracts)));
}

StreamSession::StreamSession(
    std::shared_ptr<const broker::DatabaseSnapshot> snapshot,
    const StreamOptions& options, uint64_t clock,
    std::vector<const broker::Contract*> contracts)
    : snapshot_(std::move(snapshot)), options_(options), clock_(clock) {
  steppers_.reserve(contracts.size());
  reported_.reserve(contracts.size());
  size_t labels = 0;
  for (const broker::Contract* c : contracts) {
    const ContractMonitor& monitor = ContractMonitor::Of(*c);
    labels = std::max(labels, monitor.label_count());
    steppers_.emplace_back(monitor);
    reported_.push_back(steppers_.back().verdict());
  }
  scratch_.enabled.resize(labels);
}

StreamAppendResult StreamSession::Append(const EventBatch& events) {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamAppendResult result;

  // Resolve event names once against the pinned snapshot's vocabulary.
  // Unknown names never enable a transition and stay out of the alphabet —
  // a live trace legitimately carries events no contract cites.
  const Vocabulary& vocab = snapshot_->vocabulary();
  std::vector<Snapshot> batch;
  batch.reserve(events.size());
  Snapshot alphabet(vocab.size());
  for (const std::vector<std::string>& instant : events) {
    Snapshot s(vocab.size());
    for (const std::string& name : instant) {
      if (auto id = vocab.Find(name); id.ok()) s.Set(*id);
    }
    alphabet |= s;
    batch.push_back(std::move(s));
  }

  const uint64_t count = batch.size();
  for (size_t i = 0; i < steppers_.size(); ++i) {
    ContractStepper& stepper = steppers_[i];
    if (stepper.frozen()) {
      // Verdict is permanent; the whole batch is skipped.
      result.pruned += count;
    } else if (options_.prune &&
               alphabet.DisjointWith(stepper.cited_events())) {
      const uint64_t executed = stepper.StepSilent(count, &scratch_);
      result.stepped += executed;
      result.pruned += count - executed;
    } else {
      for (const Snapshot& s : batch) stepper.Step(s, &scratch_);
      result.stepped += count;
    }
    if (stepper.verdict() != reported_[i]) {
      reported_[i] = stepper.verdict();
      result.deltas.push_back({stepper.id(), stepper.verdict()});
    }
  }
  // Steppers are built in ascending contract-id order, so deltas already
  // are; keep that as the documented invariant.
  events_ += count;
  result.events = events_;
  return result;
}

StreamCloseInfo StreamSession::Summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamCloseInfo info;
  info.events = events_;
  info.verdicts.reserve(steppers_.size());
  for (const ContractStepper& stepper : steppers_) {
    switch (stepper.verdict()) {
      case StreamVerdict::kSatisfied:
        ++info.satisfied;
        break;
      case StreamVerdict::kViolated:
        ++info.violated;
        break;
      case StreamVerdict::kUndetermined:
        ++info.undetermined;
        break;
    }
    info.verdicts.push_back({stepper.id(), stepper.verdict()});
  }
  return info;
}

}  // namespace ctdb::monitor

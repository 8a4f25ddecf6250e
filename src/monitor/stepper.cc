#include "monitor/stepper.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>

#include "automata/buchi.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ctdb::monitor {

const char* StreamVerdictName(StreamVerdict v) {
  switch (v) {
    case StreamVerdict::kUndetermined:
      return "undetermined";
    case StreamVerdict::kSatisfied:
      return "satisfied";
    case StreamVerdict::kViolated:
      return "violated";
  }
  return "unknown";
}

const ContractMonitor& ContractMonitor::Of(const broker::Contract& contract) {
  std::call_once(contract.monitor_once_, [&contract] {
    CTDB_OBS_SPAN(span, "monitor.build");
    contract.monitor_.reset(new ContractMonitor(contract));
    CTDB_OBS_SPAN_ATTR(span, "states", contract.monitor_->state_count());
    CTDB_OBS_SPAN_ATTR(span, "labels", contract.monitor_->label_count());
    CTDB_OBS_SPAN_ATTR(span, "bytes", contract.monitor_->MemoryUsage());
    CTDB_OBS_COUNT("monitor.builds", 1);
  });
  return *contract.monitor_;
}

ContractMonitor::ContractMonitor(const broker::Contract& contract)
    : contract_(&contract) {
  const automata::Buchi& ba = contract.automaton();
  const size_t states = ba.StateCount();

  // Deduplicate labels so each is evaluated once per snapshot no matter how
  // many transitions carry it; pattern automata reuse a handful of labels
  // across most transitions. The keys point into the immutable automaton.
  auto hash = [](const Label* l) { return l->Hash(); };
  auto equal = [](const Label* a, const Label* b) { return *a == *b; };
  std::unordered_map<const Label*, uint32_t, decltype(hash), decltype(equal)>
      index(ba.TransitionCount(), hash, equal);
  offsets_.reserve(states + 1);
  edges_.reserve(ba.TransitionCount());
  for (automata::StateId s = 0; s < states; ++s) {
    offsets_.push_back(static_cast<uint32_t>(edges_.size()));
    for (const automata::Transition& t : ba.Out(s)) {
      const auto [it, inserted] =
          index.emplace(&t.label, static_cast<uint32_t>(labels_.size()));
      if (inserted) labels_.push_back(t.label);
      edges_.push_back({it->second, t.to});
    }
  }
  offsets_.push_back(static_cast<uint32_t>(edges_.size()));
  silent_.resize(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) {
    silent_[i] = labels_[i].positive().None() ? 1 : 0;
  }

  // live_ = backward closure of the seed states: a state is live iff some
  // accepting cycle remains reachable from it. Non-live states have only
  // non-live successors, which is what makes `violated` absorbing.
  live_ = contract.seed_states;
  live_.Resize(states);
  const auto predecessors = ba.BuildReverseAdjacency();
  std::vector<automata::StateId> frontier;
  for (size_t s : live_.Indices()) frontier.push_back(static_cast<automata::StateId>(s));
  while (!frontier.empty()) {
    const automata::StateId s = frontier.back();
    frontier.pop_back();
    for (const auto& [from, idx] : predecessors[s]) {
      (void)idx;
      if (!live_.Test(from)) {
        live_.Set(from);
        frontier.push_back(from);
      }
    }
  }

  initial_.Resize(states);
  initial_.Set(ba.initial());
  initial_verdict_ = VerdictOf(initial_);
}

size_t ContractMonitor::MemoryUsage() const {
  size_t bytes = labels_.capacity() * sizeof(Label) +
                 offsets_.capacity() * sizeof(uint32_t) +
                 edges_.capacity() * sizeof(Edge) + silent_.capacity() +
                 live_.MemoryUsage() + initial_.MemoryUsage();
  for (const Label& label : labels_) {
    bytes += label.positive().MemoryUsage() + label.negative().MemoryUsage();
  }
  return bytes;
}

void ContractMonitor::Fold(const Bitset& from, const uint8_t* enabled,
                           Bitset* next) const {
  if (next->size() < state_count()) next->Resize(state_count());
  next->ClearAll();
  const std::span<const Edge> edges(edges_);
  for (size_t s : from.Indices()) {
    for (const Edge& edge :
         edges.subspan(offsets_[s], offsets_[s + 1] - offsets_[s])) {
      if (enabled[edge.label]) next->Set(edge.to);
    }
  }
}

StreamVerdict ContractMonitor::VerdictOf(const Bitset& states) const {
  if (states.DisjointWith(live_)) return StreamVerdict::kViolated;
  return states.DisjointWith(contract_->automaton().finals())
             ? StreamVerdict::kUndetermined
             : StreamVerdict::kSatisfied;
}

ContractStepper::ContractStepper(const ContractMonitor& monitor)
    : monitor_(&monitor),
      current_(monitor.initial_),
      verdict_(monitor.initial_verdict_) {}

bool ContractStepper::Advance(const uint8_t* enabled, StepScratch* scratch) {
  monitor_->Fold(current_, enabled, &scratch->next);
  if (scratch->next == current_) return false;
  // The scratch keeps this stepper's old buffer; Fold regrows it if the
  // next stepper has more states.
  std::swap(current_, scratch->next);
  verdict_ = monitor_->VerdictOf(current_);
  silent_stable_ = false;
  return true;
}

void ContractStepper::Step(const Snapshot& snapshot, StepScratch* scratch) {
  if (frozen()) return;
  const std::vector<Label>& labels = monitor_->labels_;
  uint8_t* enabled = scratch->enabled.data();
  for (size_t i = 0; i < labels.size(); ++i) {
    enabled[i] = Satisfies(snapshot, labels[i]) ? 1 : 0;
  }
  if (!Advance(enabled, scratch) &&
      std::equal(enabled, enabled + labels.size(), monitor_->silent_.begin())) {
    // A full step that happened to be a silent fixpoint application — note
    // the stability so a later silent batch can still be skipped.
    silent_stable_ = true;
  }
}

uint64_t ContractStepper::StepSilent(uint64_t count, StepScratch* scratch) {
  uint64_t executed = 0;
  while (executed < count && !frozen() && !silent_stable_) {
    ++executed;
    if (!Advance(monitor_->silent_.data(), scratch)) silent_stable_ = true;
  }
  return executed;
}

}  // namespace ctdb::monitor

#include "testing/reference.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/ops.h"
#include "core/compatibility.h"

namespace ctdb::testing {

namespace {

/// (contract state, query state, layer) packed for the discovery map.
uint64_t Key(automata::StateId c, automata::StateId q, uint32_t layer) {
  return (static_cast<uint64_t>(layer) << 63) |
         (static_cast<uint64_t>(c) << 32) | q;
}

}  // namespace

automata::Buchi PermissionProduct(const automata::Buchi& contract,
                                  const Bitset& contract_events,
                                  const automata::Buchi& query) {
  automata::Buchi product;  // starts with one state: the initial
  struct Pair {
    automata::StateId c, q;
    uint32_t layer;
  };
  std::unordered_map<uint64_t, automata::StateId> ids;
  std::vector<Pair> worklist;

  const Pair init{contract.initial(), query.initial(), 0};
  ids.emplace(Key(init.c, init.q, init.layer), product.initial());
  worklist.push_back(init);

  auto intern = [&](automata::StateId c, automata::StateId q,
                    uint32_t layer) -> automata::StateId {
    auto [it, inserted] = ids.emplace(Key(c, q, layer), 0);
    if (inserted) {
      it->second = product.AddState();
      worklist.push_back(Pair{c, q, layer});
    }
    return it->second;
  };

  while (!worklist.empty()) {
    const Pair p = worklist.back();
    worklist.pop_back();
    const automata::StateId from = ids.at(Key(p.c, p.q, p.layer));
    if (p.layer == 0 && query.IsFinal(p.q)) product.SetFinal(from);
    // Layer switching depends on the *source* pair: layer 0 advances after
    // leaving a query-final pair, layer 1 returns after a contract-final one.
    uint32_t next_layer = p.layer;
    if (p.layer == 0 && query.IsFinal(p.q)) next_layer = 1;
    if (p.layer == 1 && contract.IsFinal(p.c)) next_layer = 0;
    for (const automata::Transition& ct : contract.Out(p.c)) {
      for (const automata::Transition& qt : query.Out(p.q)) {
        if (!core::Compatible(ct.label, qt.label, contract_events)) continue;
        const automata::StateId to = intern(ct.to, qt.to, next_layer);
        product.AddTransition(from, ct.label.ConjunctionWith(qt.label), to);
      }
    }
  }
  return product;
}

bool ReferencePermits(const automata::Buchi& contract,
                      const Bitset& contract_events,
                      const automata::Buchi& query) {
  return !automata::IsEmptyLanguage(
      PermissionProduct(contract, contract_events, query));
}

NaiveStepper::NaiveStepper(const broker::Contract* contract)
    : contract_(contract) {
  const automata::Buchi& ba = contract->automaton();
  live_.assign(ba.StateCount(), false);
  for (size_t s : contract->seed_states.Indices()) live_[s] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (automata::StateId s = 0; s < ba.StateCount(); ++s) {
      if (live_[s]) continue;
      for (const automata::Transition& t : ba.Out(s)) {
        if (live_[t.to]) {
          live_[s] = true;
          changed = true;
          break;
        }
      }
    }
  }
  reach_.insert(ba.initial());
}

void NaiveStepper::Step(const Snapshot& snapshot) {
  const automata::Buchi& ba = contract_->automaton();
  std::set<automata::StateId> next;
  for (automata::StateId s : reach_) {
    for (const automata::Transition& t : ba.Out(s)) {
      if (Satisfies(snapshot, t.label)) next.insert(t.to);
    }
  }
  reach_ = std::move(next);
}

monitor::StreamVerdict NaiveStepper::Verdict() const {
  const automata::Buchi& ba = contract_->automaton();
  bool any_live = false, any_final = false;
  for (automata::StateId s : reach_) {
    if (live_[s]) any_live = true;
    if (ba.finals().Test(s)) any_final = true;
  }
  if (!any_live) return monitor::StreamVerdict::kViolated;
  return any_final ? monitor::StreamVerdict::kSatisfied
                   : monitor::StreamVerdict::kUndetermined;
}

}  // namespace ctdb::testing

// A registered contract: its specification, BA representation and the
// per-contract precomputed data both optimizations rely on.

#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "automata/buchi.h"
#include "projection/store.h"
#include "util/bitset.h"

namespace ctdb::monitor {
class ContractMonitor;
}

namespace ctdb::broker {

/// \brief One contract in the database.
struct Contract {
  uint32_t id = 0;
  std::string name;
  std::string ltl_text;  ///< as registered (conjunction of clauses)

  /// System-period clock at which this contract version became visible
  /// (the Register or Replace that produced it — DESIGN.md §14). A version
  /// is visible as-of `s` iff `valid_from <= s` and, once superseded, the
  /// history store bounds it with an exclusive `valid_to`.
  uint64_t valid_from = 0;

  /// Events cited by the LTL specification — the vocabulary V of
  /// Definition 5 (may strictly contain the events on BA labels).
  Bitset events;

  /// Contract states lying on a cycle through a final state (§6.2.4).
  Bitset seed_states;

  /// The contract BA plus its precomputed simplified projections (§5); the
  /// registered automaton itself is `projections.original()`.
  projection::ContractProjections projections;

  const automata::Buchi& automaton() const { return projections.original(); }

 private:
  friend class monitor::ContractMonitor;

  /// This version's stream-monitor tables (DESIGN.md §15): built by the
  /// first stream open that pins the version (monitor::ContractMonitor::Of,
  /// once under `monitor_once_`), never at registration, then shared
  /// read-only by every session.
  mutable std::once_flag monitor_once_;
  mutable std::shared_ptr<const monitor::ContractMonitor> monitor_;
};

}  // namespace ctdb::broker

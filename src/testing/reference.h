// Naive reference implementations, deliberately independent of the
// optimized code they check, so it has something slow and obviously-correct
// to disagree with. Never used in production.
//
// The permission check, independent of core/permission.cc: it
// *materializes* the compatibility product of Definition 7 as an explicit
// Büchi automaton (degeneralizing the two acceptance sets — query-final
// pairs and contract-final pairs — with the standard two-layer counter) and
// decides permission by automata::IsEmptyLanguage. Quadratic in states.
//
// The stream monitor's stepping, independent of monitor::ContractMonitor and
// ContractStepper (NaiveStepper): the differential suite's oracle and
// bench_monitor's naive ablation.

#pragma once

#include <set>
#include <vector>

#include "automata/buchi.h"
#include "base/run.h"
#include "broker/contract.h"
#include "monitor/types.h"
#include "util/bitset.h"

namespace ctdb::testing {

/// \brief The reachable compatibility product contract × query × {0,1}.
///
/// Layer 0 waits for a query-final pair, layer 1 for a contract-final pair;
/// accepting states are layer-0 sources whose query state is final, so the
/// product has an accepting cycle iff some product cycle visits both a
/// query-final and a contract-final pair — exactly the simultaneous lasso of
/// Theorem 4.
automata::Buchi PermissionProduct(const automata::Buchi& contract,
                                  const Bitset& contract_events,
                                  const automata::Buchi& query);

/// Definition 7 permission via product emptiness. Must agree with
/// core::Permits on every input.
bool ReferencePermits(const automata::Buchi& contract,
                      const Bitset& contract_events,
                      const automata::Buchi& query);

/// \brief Finite-trace stepping of one contract, done naively.
///
/// std::set state sets, every transition's label evaluated at every
/// instant, a forward fixpoint for the live marking — sharing no code
/// (bitsets, label dedup, reverse adjacency, freezing, pruning, batching)
/// with the monitor it is compared against.
class NaiveStepper {
 public:
  explicit NaiveStepper(const broker::Contract* contract);

  /// Advances every reached state over one instant.
  void Step(const Snapshot& snapshot);

  /// Violated when no reached state can still accept, satisfied when one is
  /// final, undetermined otherwise.
  monitor::StreamVerdict Verdict() const;

 private:
  const broker::Contract* contract_;
  std::set<automata::StateId> reach_;
  std::vector<bool> live_;
};

}  // namespace ctdb::testing

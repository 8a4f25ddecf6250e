#include "index/pruning.h"

#include <optional>
#include <vector>

#include "automata/ops.h"
#include "automata/scc.h"
#include "obs/metrics.h"

namespace ctdb::index {

using automata::Buchi;
using automata::SccInfo;
using automata::StateId;
using automata::Transition;

namespace {

/// `c`, or TRUE once it outgrows the size cap (prunes nothing — sound).
Condition Capped(Condition c, const PruningOptions& options) {
  return c.Size() > options.max_condition_size ? Condition::True()
                                               : std::move(c);
}

/// Memoized per-SCC path conditions over the condensation DAG
/// (PathConditionMode::kCondensation).
class CondensationPaths {
 public:
  CondensationPaths(const Buchi& query, const SccInfo& scc,
                    const PruningOptions& options)
      : options_(options) {
    cache_.resize(scc.count);
    computed_.resize(scc.count, false);
    incoming_.resize(scc.count);
    for (StateId s = 0; s < query.StateCount(); ++s) {
      const uint32_t from_comp = scc.component[s];
      for (const Transition& t : query.Out(s)) {
        const uint32_t to_comp = scc.component[t.to];
        if (from_comp != to_comp) {
          incoming_[to_comp].push_back({from_comp, &t.label});
        }
      }
    }
    init_comp_ = scc.component[query.initial()];
  }

  /// Necessary condition for reaching component `comp` from the initial
  /// state. Tarjan's numbering is reverse-topological, so predecessors have
  /// larger component ids and the recursion is well-founded on the DAG.
  Condition For(uint32_t comp) {
    if (computed_[comp]) return cache_[comp];
    computed_[comp] = true;
    if (comp == init_comp_) return cache_[comp] = Condition::True();
    std::vector<Condition> disjuncts;
    for (const auto& [from_comp, label] : incoming_[comp]) {
      disjuncts.push_back(Capped(
          Condition::And({For(from_comp), Condition::Leaf(*label)}),
          options_));
    }
    return cache_[comp] = Capped(Condition::Or(std::move(disjuncts)), options_);
  }

 private:
  struct Edge {
    uint32_t from_comp;
    const Label* label;
  };
  PruningOptions options_;
  std::vector<std::vector<Edge>> incoming_;
  std::vector<Condition> cache_;
  std::vector<bool> computed_;
  uint32_t init_comp_ = 0;
};

/// Algorithm 1's compute_path_from_init with its memoization scheme
/// (PathConditionMode::kMemoizedStatePaths). Recursion cycles substitute
/// TRUE for the in-progress state: the affected disjunct loses conjuncts,
/// which only *weakens* the condition — a sound over-approximation, and the
/// price of the linear-time memoization the paper describes.
class StatePaths {
 public:
  StatePaths(const Buchi& query, const PruningOptions& options)
      : query_(query), options_(options) {
    cache_.resize(query.StateCount());
    state_.resize(query.StateCount(), State::kUnvisited);
    incoming_ = query.BuildReverseAdjacency();
  }

  Condition For(StateId s) {
    if (state_[s] == State::kDone) return cache_[s];
    // current_path cut: contribute no constraint.
    if (state_[s] == State::kInProgress) return Condition::True();
    state_[s] = State::kInProgress;
    Condition result;
    if (s != query_.initial()) {
      std::vector<Condition> disjuncts;
      for (const auto& [pred, edge_index] : incoming_[s]) {
        const Label& label = query_.Out(pred)[edge_index].label;
        disjuncts.push_back(Capped(
            Condition::And({For(pred), Condition::Leaf(label)}), options_));
      }
      result = Capped(Condition::Or(std::move(disjuncts)), options_);
    }
    state_[s] = State::kDone;
    return cache_[s] = std::move(result);
  }

 private:
  enum class State : uint8_t { kUnvisited, kInProgress, kDone };
  const Buchi& query_;
  PruningOptions options_;
  std::vector<Condition> cache_;
  std::vector<State> state_;
  std::vector<std::vector<std::pair<StateId, uint32_t>>> incoming_;
};

/// cycle_condition(t) in the paper's implemented approximation: disjunction
/// of the labels on t's incoming transitions from inside its SCC.
Condition IncomingCycleCondition(
    const std::vector<std::vector<const Label*>>& in_scc_incoming,
    StateId t) {
  std::vector<Condition> labels;
  for (const Label* label : in_scc_incoming[t]) {
    labels.push_back(Condition::Leaf(*label));
  }
  return Condition::Or(std::move(labels));
}

/// The complete variant: disjunction over simple cycles through `t` of the
/// conjunction of their labels, found by bounded DFS inside t's SCC, which
/// has `comp_size` states. Returns false (and leaves `out` untouched) when a
/// bound was hit.
bool BoundedCycleCondition(const Buchi& query, const SccInfo& scc,
                           size_t comp_size, StateId t,
                           const PruningOptions& options, Condition* out) {
  const uint32_t comp = scc.component[t];

  // Completeness guard: a *necessary* condition must cover every simple
  // cycle through t. All simple cycles have length ≤ |SCC|, so enumeration
  // is complete exactly when the SCC fits the length bound; otherwise fall
  // back to the sound approximation.
  if (comp_size > options.max_cycle_length) return false;

  std::vector<Condition> cycles;

  // DFS over simple paths starting at t, restricted to t's SCC.
  struct Frame {
    StateId state;
    uint32_t edge;
  };
  std::vector<Frame> stack;
  std::vector<const Label*> labels_on_path;
  std::vector<bool> on_path(query.StateCount(), false);
  stack.push_back({t, 0});
  size_t steps = 0;
  while (!stack.empty()) {
    if (++steps > 200000) return false;  // runaway safety bound
    Frame& f = stack.back();
    const auto& out_edges = query.Out(f.state);
    if (f.edge >= out_edges.size()) {
      on_path[f.state] = false;
      stack.pop_back();
      if (!labels_on_path.empty()) labels_on_path.pop_back();
      continue;
    }
    const Transition& tr = out_edges[f.edge];
    ++f.edge;
    if (scc.component[tr.to] != comp) continue;
    if (tr.to == t) {
      // Completed a simple cycle through t.
      std::vector<Condition> conj;
      for (const Label* l : labels_on_path) conj.push_back(Condition::Leaf(*l));
      conj.push_back(Condition::Leaf(tr.label));
      cycles.push_back(Condition::And(std::move(conj)));
      if (cycles.size() > options.max_cycles_per_knot) return false;
      continue;
    }
    if (on_path[tr.to]) continue;  // keep the path simple
    on_path[tr.to] = true;
    labels_on_path.push_back(&tr.label);
    stack.push_back({tr.to, 0});
  }
  Condition result = Condition::Or(std::move(cycles));
  if (result.Size() > options.max_condition_size) return false;
  *out = std::move(result);
  return true;
}

}  // namespace

Condition ExtractPruningCondition(const Buchi& query,
                                  const PruningOptions& options,
                                  bool* overflowed) {
  const Bitset reachable = automata::ReachableStates(query);
  const SccInfo scc = automata::ComputeScc(query);

  std::optional<CondensationPaths> condensation;
  std::optional<StatePaths> state_paths;
  if (options.path_mode == PathConditionMode::kMemoizedStatePaths) {
    state_paths.emplace(query, options);
  } else {
    condensation.emplace(query, scc, options);
  }

  // Per state: incoming transitions from inside its SCC.
  std::vector<std::vector<const Label*>> in_scc_incoming(query.StateCount());
  for (StateId s = 0; s < query.StateCount(); ++s) {
    for (const Transition& t : query.Out(s)) {
      if (scc.component[s] == scc.component[t.to]) {
        in_scc_incoming[t.to].push_back(&t.label);
      }
    }
  }

  // Per component: its state count (kBoundedCycles' completeness guard).
  std::vector<size_t> comp_size;
  if (options.cycle_mode == CycleConditionMode::kBoundedCycles) {
    comp_size.resize(scc.count, 0);
    for (StateId s = 0; s < query.StateCount(); ++s) {
      ++comp_size[scc.component[s]];
    }
  }

  std::vector<Condition> lasso_conditions;
  for (size_t st : query.finals().Indices()) {
    const StateId t = static_cast<StateId>(st);
    if (!reachable.Test(t)) continue;
    const uint32_t comp = scc.component[t];
    if (!scc.cyclic[comp]) continue;  // no lasso can knot here

    Condition cycle;
    if (options.cycle_mode != CycleConditionMode::kBoundedCycles ||
        !BoundedCycleCondition(query, scc, comp_size[comp], t, options,
                               &cycle)) {
      cycle = IncomingCycleCondition(in_scc_incoming, t);
    }
    Condition path =
        state_paths ? state_paths->For(t) : condensation->For(comp);
    lasso_conditions.push_back(Capped(
        Condition::And({std::move(cycle), std::move(path)}), options));
  }
  Condition result = Condition::Or(std::move(lasso_conditions));
  const bool overflow = result.Size() > options.max_condition_size;
  if (overflowed != nullptr) *overflowed = overflow;
  if (overflow) {
    CTDB_OBS_COUNT("prefilter.condition_overflow", 1);
    return Condition::True();
  }
  CTDB_OBS_COUNT("prefilter.conditions_extracted", 1);
  CTDB_OBS_HIST("prefilter.condition_size", result.Size());
  return result;
}

}  // namespace ctdb::index

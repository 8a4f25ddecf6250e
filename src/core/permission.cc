#include "core/permission.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "automata/scc.h"
#include "core/compatibility.h"
#include "obs/metrics.h"

namespace ctdb::core {

using automata::Buchi;
using automata::StateId;
using automata::Transition;

namespace {

/// Packs a product pair into one 64-bit key.
inline uint64_t PairKey(StateId s, StateId q) {
  return (static_cast<uint64_t>(s) << 32) | q;
}

/// Enumerates the product successors of (s, q): all (θ.to, τ.to) with
/// compatible labels.
template <typename Fn>
void ForEachSuccessor(const Buchi& contract, const Bitset& contract_events,
                      const Buchi& query, StateId s, StateId q, Fn&& fn) {
  for (const Transition& theta : contract.Out(s)) {
    for (const Transition& tau : query.Out(q)) {
      if (Compatible(theta.label, tau.label, contract_events)) {
        fn(theta.to, tau.to);
      }
    }
  }
}

/// Inner search of Algorithm 2 (procedure cycle_search), memoized: looks for
/// a cycle from `seed` back to `seed` containing a contract-final pair.
/// Nodes are (pair, seen-final) and each is visited at most once.
bool CycleSearch(const Buchi& contract, const Bitset& contract_events,
                 const Buchi& query, StateId seed_s, StateId seed_q,
                 PermissionStats* stats) {
  const bool seed_final = contract.IsFinal(seed_s);
  // Node key: pair key shifted, low bit = seen-contract-final flag.
  std::unordered_set<uint64_t> visited;
  std::vector<std::pair<uint64_t, bool>> stack;  // (pair key, flag)

  bool found = false;
  ForEachSuccessor(contract, contract_events, query, seed_s, seed_q,
                   [&](StateId s2, StateId q2) {
                     if (found) return;
                     const bool flag =
                         seed_final || contract.IsFinal(s2);
                     if (s2 == seed_s && q2 == seed_q && flag) {
                       found = true;
                       return;
                     }
                     const uint64_t key = (PairKey(s2, q2) << 1) |
                                          (flag ? 1u : 0u);
                     if (visited.insert(key).second) {
                       stack.emplace_back(PairKey(s2, q2), flag);
                     }
                   });
  while (!found && !stack.empty()) {
    const auto [pair, flag] = stack.back();
    stack.pop_back();
    if (stats != nullptr) ++stats->cycle_pairs;
    const StateId s = static_cast<StateId>(pair >> 32);
    const StateId q = static_cast<StateId>(pair & 0xffffffffu);
    ForEachSuccessor(contract, contract_events, query, s, q,
                     [&](StateId s2, StateId q2) {
                       if (found) return;
                       const bool flag2 = flag || contract.IsFinal(s2);
                       if (s2 == seed_s && q2 == seed_q && flag2) {
                         found = true;
                         return;
                       }
                       const uint64_t key = (PairKey(s2, q2) << 1) |
                                            (flag2 ? 1u : 0u);
                       if (visited.insert(key).second) {
                         stack.emplace_back(PairKey(s2, q2), flag2);
                       }
                     });
  }
  return found;
}

/// Algorithm 2: outer DFS over product pairs; inner cycle search at seeds.
bool PermitsNestedDfs(const Buchi& contract, const Bitset& contract_events,
                      const Buchi& query, const Bitset* seed_states,
                      bool use_seeds, PermissionStats* stats) {
  Bitset local_seeds;
  if (use_seeds && seed_states == nullptr) {
    local_seeds = ComputeSeedStates(contract);
    seed_states = &local_seeds;
  }

  std::unordered_set<uint64_t> visited;
  std::vector<uint64_t> stack;
  const uint64_t root = PairKey(contract.initial(), query.initial());
  visited.insert(root);
  stack.push_back(root);

  while (!stack.empty()) {
    const uint64_t pair = stack.back();
    stack.pop_back();
    if (stats != nullptr) ++stats->pairs_visited;
    const StateId s = static_cast<StateId>(pair >> 32);
    const StateId q = static_cast<StateId>(pair & 0xffffffffu);

    // Seed test: query state final, and (seeds optimization, §6.2.4) the
    // contract state lies on a contract cycle through a contract-final state.
    if (query.IsFinal(q) && (!use_seeds || seed_states->Test(s))) {
      if (stats != nullptr) ++stats->cycle_searches;
      if (CycleSearch(contract, contract_events, query, s, q, stats)) {
        return true;
      }
    }

    ForEachSuccessor(contract, contract_events, query, s, q,
                     [&](StateId s2, StateId q2) {
                       const uint64_t key = PairKey(s2, q2);
                       if (visited.insert(key).second) stack.push_back(key);
                     });
  }
  return false;
}

/// SCC-based variant: the product is discovered lazily during an iterative
/// Tarjan DFS, and the check returns the instant an accepting cyclic SCC
/// (contract-final + query-final member, cycle present) is popped. A
/// permitted contract therefore pays only for the pairs on the DFS path to
/// its first witness lasso; only rejections explore the whole product.
bool PermitsScc(const Buchi& contract, const Bitset& contract_events,
                         const Buchi& query, PermissionStats* stats) {
  constexpr uint32_t kUnvisited = UINT32_MAX;
  std::unordered_map<uint64_t, uint32_t> id_of;
  std::vector<std::pair<StateId, StateId>> nodes;
  std::vector<std::vector<uint32_t>> adj;  ///< filled when DFS enters a node
  std::vector<uint32_t> index;
  std::vector<uint32_t> lowlink;
  std::vector<uint8_t> on_stack;
  std::vector<uint8_t> self_loop;

  auto intern = [&](StateId s, StateId q) -> uint32_t {
    const uint64_t key = PairKey(s, q);
    auto [it, inserted] =
        id_of.emplace(key, static_cast<uint32_t>(nodes.size()));
    if (inserted) {
      nodes.emplace_back(s, q);
      adj.emplace_back();
      index.push_back(kUnvisited);
      lowlink.push_back(0);
      on_stack.push_back(0);
      self_loop.push_back(0);
    }
    return it->second;
  };

  struct Frame {
    uint32_t node;
    uint32_t edge;
  };
  std::vector<Frame> frames;
  std::vector<uint32_t> scc_stack;
  uint32_t next_index = 0;

  // Enters `v`: assigns its DFS index, pushes it on both stacks, and
  // materializes its product successors (the lazy construction step).
  auto discover = [&](uint32_t v) {
    index[v] = lowlink[v] = next_index++;
    scc_stack.push_back(v);
    on_stack[v] = 1;
    if (stats != nullptr) ++stats->pairs_visited;
    const auto [s, q] = nodes[v];
    ForEachSuccessor(contract, contract_events, query, s, q,
                     [&](StateId s2, StateId q2) {
                       const uint32_t w = intern(s2, q2);
                       if (w == v) self_loop[v] = 1;
                       adj[v].push_back(w);
                     });
    frames.push_back({v, 0});
  };

  discover(intern(contract.initial(), query.initial()));
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.edge < adj[f.node].size()) {
      const uint32_t w = adj[f.node][f.edge];
      ++f.edge;
      if (index[w] == kUnvisited) {
        discover(w);  // invalidates `f`; loop re-reads frames.back()
      } else if (on_stack[w]) {
        lowlink[f.node] = std::min(lowlink[f.node], index[w]);
      }
      continue;
    }
    const uint32_t v = f.node;
    frames.pop_back();
    if (!frames.empty()) {
      lowlink[frames.back().node] =
          std::min(lowlink[frames.back().node], lowlink[v]);
    }
    if (lowlink[v] == index[v]) {
      // SCC rooted at v closes: classify it as it pops. Any SCC with more
      // than one member is cyclic; a singleton is cyclic iff it self-loops.
      bool contract_final = false;
      bool query_final = false;
      bool cyclic = false;
      size_t size = 0;
      while (true) {
        const uint32_t w = scc_stack.back();
        scc_stack.pop_back();
        on_stack[w] = 0;
        ++size;
        if (contract.IsFinal(nodes[w].first)) contract_final = true;
        if (query.IsFinal(nodes[w].second)) query_final = true;
        if (self_loop[w] != 0) cyclic = true;
        if (w == v) break;
      }
      if (size > 1) cyclic = true;
      if (cyclic && contract_final && query_final) return true;
    }
  }
  return false;
}

}  // namespace

Bitset ComputeSeedStates(const Buchi& contract) {
  const automata::SccInfo scc = automata::ComputeScc(contract);
  Bitset seeds(contract.StateCount());
  for (StateId s = 0; s < contract.StateCount(); ++s) {
    if (scc.OnFinalCycle(s)) seeds.Set(s);
  }
  return seeds;
}

bool Permits(const Buchi& contract, const Bitset& contract_events,
             const Buchi& query, const PermissionOptions& options,
             const Bitset* seed_states, PermissionStats* stats) {
  // When recording, the inner searches accumulate into a local struct so the
  // registry flush below sees exactly this check's counts even if the caller
  // reuses one cumulative PermissionStats across many checks (the shard
  // pattern). With obs compiled out or disabled, the caller's pointer is
  // passed through untouched — the paper-faithful path is unchanged.
  PermissionStats* target = stats;
#if CTDB_OBS
  PermissionStats local;
  const bool record = obs::Enabled();
  if (record) target = &local;
#endif
  bool permitted = false;
  switch (options.algorithm) {
    case PermissionAlgorithm::kNestedDfs:
      permitted = PermitsNestedDfs(contract, contract_events, query,
                                   seed_states, options.use_seeds, target);
      break;
    case PermissionAlgorithm::kScc:
      permitted = PermitsScc(contract, contract_events, query, target);
      break;
  }
#if CTDB_OBS
  if (record) {
    // Permission checks are the system's innermost hot loop (hundreds of
    // nanoseconds each on small automata), so the flush resolves every
    // handle through one static struct (one init-guard check) and the
    // thread's shard once, and skips zero-valued adds.
    struct Handles {
      obs::Counter* checks;
      obs::Counter* nested_dfs;
      obs::Counter* scc;
      obs::Counter* permitted;
      obs::Counter* pairs_visited;
      obs::Counter* cycle_searches;
      obs::Counter* cycle_pairs;
      obs::Histogram* pairs_per_check;
    };
    static const Handles h = [] {
      obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
      return Handles{r->GetCounter("permission.checks"),
                     r->GetCounter("permission.nested_dfs_checks"),
                     r->GetCounter("permission.scc_checks"),
                     r->GetCounter("permission.permitted"),
                     r->GetCounter("permission.pairs_visited"),
                     r->GetCounter("permission.cycle_searches"),
                     r->GetCounter("permission.cycle_pairs"),
                     r->GetHistogram("permission.pairs_per_check")};
    }();
    const size_t shard = obs::ThisThreadShard();
    h.checks->AddAt(shard, 1);
    (options.algorithm == PermissionAlgorithm::kNestedDfs ? h.nested_dfs
                                                          : h.scc)
        ->AddAt(shard, 1);
    if (permitted) h.permitted->AddAt(shard, 1);
    if (local.pairs_visited != 0) {
      h.pairs_visited->AddAt(shard, local.pairs_visited);
    }
    if (local.cycle_searches != 0) {
      h.cycle_searches->AddAt(shard, local.cycle_searches);
    }
    if (local.cycle_pairs != 0) {
      h.cycle_pairs->AddAt(shard, local.cycle_pairs);
    }
    h.pairs_per_check->RecordAt(shard, local.pairs_visited);
    if (stats != nullptr) stats->MergeFrom(local);
  }
#endif
  return permitted;
}

}  // namespace ctdb::core

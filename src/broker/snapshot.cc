#include "broker/snapshot.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/compatibility.h"
#include "core/witness.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ctdb::broker {

namespace {

bool ById(const Contract* a, const Contract* b) { return a->id < b->id; }

/// One (query, candidate) permission check's outcome.
struct Verdict {
  bool permits = false;
  LassoWord witness;
  core::PermissionStats stats;
  double ms = 0;
};

/// One query on its way through the engine.
struct Plan {
  std::shared_ptr<const automata::Buchi> ba;
  Bitset events;                            ///< events the query cites
  std::vector<const Contract*> candidates;  ///< sorted by id
  std::vector<Verdict> verdicts;            ///< one per candidate
};

/// Runs `body(w)` for every worker w in [0, workers): inline when there is
/// one, else on `pool`.
template <typename Body>
Status ForEachWorker(util::ThreadPool* pool, size_t workers, const Body& body) {
  if (workers <= 1) return body(0);
  return pool->ParallelFor(0, workers, body);
}

}  // namespace

size_t DatabaseSnapshot::ResolveThreads(size_t requested,
                                        const util::ThreadPool* pool) const {
  if (pool == nullptr) return 1;  // no executor: inline on the caller
  const size_t threads = requested == 0 ? options_.threads : requested;
  return threads == 0 ? 1 : threads;
}

Result<QueryResult> DatabaseSnapshot::Query(std::string_view ltl_text,
                                            const QueryOptions& options,
                                            util::ThreadPool* pool) const {
  // Parse with a local factory, read-only against the snapshot vocabulary:
  // unknown events are a NotFound error and nothing shared is touched.
  ltl::FormulaFactory factory;
  CTDB_ASSIGN_OR_RETURN(const ltl::Formula* query,
                        ltl::Parse(ltl_text, &factory, *vocab_));
  return RunOne(query, &factory, options, pool);
}

Result<QueryResult> DatabaseSnapshot::QueryFormula(
    const ltl::Formula* query, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // The translation rebuilds `query` into this local factory (NNF
  // normalization copies the formula first), so callers may pass formulas
  // owned by any factory — including the database's shared one — without
  // the read path interning into it.
  ltl::FormulaFactory factory;
  return RunOne(query, &factory, options, pool);
}

Result<QueryResult> DatabaseSnapshot::RunOne(const ltl::Formula* query,
                                             ltl::FormulaFactory* factory,
                                             const QueryOptions& options,
                                             util::ThreadPool* pool) const {
  CTDB_OBS_SPAN(query_span, "query");
  CTDB_ASSIGN_OR_RETURN(
      std::vector<QueryResult> results,
      Run({query}, factory, options, pool, "query.permission"));
  CTDB_OBS_SPAN_ATTR(query_span, "candidates", results[0].stats.candidates);
  CTDB_OBS_SPAN_ATTR(query_span, "matches", results[0].stats.matches);
  return std::move(results[0]);
}

Result<std::vector<QueryResult>> DatabaseSnapshot::QueryBatch(
    const std::vector<std::string>& queries, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // Parse every query read-only against the snapshot vocabulary first, so
  // an unknown-event typo fails the whole batch before any is evaluated.
  CTDB_OBS_SPAN(batch_span, "query_batch");
  CTDB_OBS_SPAN_ATTR(batch_span, "queries", queries.size());
  ltl::FormulaFactory factory;
  std::vector<const ltl::Formula*> formulas(queries.size());
  {
    CTDB_OBS_SPAN(parse_span, "query_batch.parse");
    for (size_t i = 0; i < queries.size(); ++i) {
      auto parsed = ltl::Parse(queries[i], &factory, *vocab_);
      if (!parsed.ok()) {
        return Status(parsed.status().code(),
                      "query " + std::to_string(i) + ": " +
                          parsed.status().message());
      }
      formulas[i] = *parsed;
    }
  }
  return Run(formulas, &factory, options, pool, "query_batch.permission");
}

Result<std::vector<QueryResult>> DatabaseSnapshot::Run(
    const std::vector<const ltl::Formula*>& formulas,
    ltl::FormulaFactory* factory, const QueryOptions& options,
    util::ThreadPool* pool,
    [[maybe_unused]] const char* permission_span) const {
  // Time travel (DESIGN.md §14): 0, or a clock at or past this snapshot's,
  // is "latest".
  const bool as_of = options.as_of != 0 && options.as_of < clock_;
  const uint64_t clock = as_of ? options.as_of : clock_;
  if (as_of && clock < history_->floor()) {
    return Status::InvalidArgument(
        "as_of " + std::to_string(clock) + " is below the retention floor " +
        std::to_string(history_->floor()) +
        ": history there has been discarded");
  }
  if (as_of) CTDB_OBS_COUNT("broker.queries.as_of", formulas.size());
  const size_t visible = as_of ? VisibleAt(clock).size() : live_count_;
  const size_t threads = ResolveThreads(options.threads, pool);
  const size_t n = formulas.size();
  std::vector<QueryResult> results(n);
  std::vector<Plan> plans(n);

  // 1. Per query: LTL → BA through the shared translation cache (charged to
  // the query, §7.3), then its candidates at `clock`. One translator uses
  // the caller's factory: the automaton built for a formula depends on the
  // factory it is built in. Parallel ones take strided queries and their
  // own factories; formulas are immutable, so any thread may read them.
  const size_t translators = std::min(threads, n);
  std::vector<Status> translated(n);
  auto prepare = [&](size_t q, ltl::FormulaFactory* into) -> Status {
    Plan& plan = plans[q];
    QueryStats& stats = results[q].stats;
    stats.database_size = visible;
    Timer phase;
    CTDB_ASSIGN_OR_RETURN(
        plan.ba, translate::LtlToBuchiCached(
                     formulas[q], into, translation_cache_.get(),
                     options_.translate, nullptr, &stats.translate_cache_hit));
    stats.translate_ms = phase.ElapsedMillis();
    stats.query_states = plan.ba->StateCount();
    stats.query_transitions = plan.ba->TransitionCount();
    phase.Reset();
    plan.candidates = Candidates(*plan.ba, clock, options);
    stats.prefilter_ms = phase.ElapsedMillis();
    stats.candidates = plan.candidates.size();
    plan.events = plan.ba->CitedEvents();
    plan.verdicts.resize(plan.candidates.size());
    return Status::OK();
  };
  CTDB_RETURN_NOT_OK(ForEachWorker(pool, translators, [&](size_t w) {
    std::optional<ltl::FormulaFactory> own;
    ltl::FormulaFactory* into = translators > 1 ? &own.emplace() : factory;
    for (size_t q = w; q < n; q += translators) {
      translated[q] = prepare(q, into);
    }
    return Status::OK();
  }));
  for (const Status& status : translated) CTDB_RETURN_NOT_OK(status);

  // 2. Permission checks (§3.1 / §5.2). Worker w owns the contracts at
  // positions ≡ w (mod workers) in the sorted union of every query's
  // candidate ids. For one query that is a strided split of its
  // candidates; in a batch each contract, and so its lazy quotient cache,
  // stays on one worker across all the queries that select it.
  std::vector<uint32_t> ids;
  for (const Plan& plan : plans) {
    for (const Contract* c : plan.candidates) ids.push_back(c->id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const size_t workers = std::min(threads, std::max<size_t>(ids.size(), 1));
  const bool use_projection =
      options.use_projections && options_.build_projections;
  {
    CTDB_OBS_SPAN(span, permission_span);
    CTDB_RETURN_NOT_OK(ForEachWorker(pool, workers, [&](size_t w) {
      for (Plan& plan : plans) {
        for (size_t i = 0; i < plan.candidates.size(); ++i) {
          const Contract& contract = *plan.candidates[i];
          const size_t position =
              std::lower_bound(ids.begin(), ids.end(), contract.id) -
              ids.begin();
          if (position % workers != w) continue;
          Verdict& verdict = plan.verdicts[i];
          Timer timer;
          // Seed states were computed on the registered automaton; a
          // quotient has different state ids, so they go with the former.
          const automata::Buchi& contract_ba =
              use_projection
                  ? contract.projections.ForQueryEvents(plan.events)
                  : contract.automaton();
          verdict.permits = core::Permits(
              contract_ba, contract.events, *plan.ba, options.permission,
              use_projection ? nullptr : &contract.seed_states,
              &verdict.stats);
          if (verdict.permits && options.collect_witnesses) {
            // Witnesses come from the *registered* automaton: a projection's
            // labels are projected, so its runs are not contract behavior.
            auto witness = core::FindWitness(contract.automaton(),
                                             contract.events, *plan.ba);
            if (witness.has_value()) verdict.witness = std::move(*witness);
          }
          verdict.ms = timer.ElapsedMillis();
        }
      }
      return Status::OK();
    }));
  }

  // 3. Merge by contract id: candidates are sorted by id, so walking them
  // in order lists each query's matches, and witnesses, sorted.
  for (size_t q = 0; q < n; ++q) {
    Plan& plan = plans[q];
    QueryResult& result = results[q];
    QueryStats& stats = result.stats;
    for (size_t i = 0; i < plan.candidates.size(); ++i) {
      Verdict& verdict = plan.verdicts[i];
      stats.permission.MergeFrom(verdict.stats);
      stats.permission_ms += verdict.ms;
      if (!verdict.permits) continue;
      result.matches.push_back(plan.candidates[i]->id);
      if (options.collect_witnesses) {
        result.witnesses.push_back(std::move(verdict.witness));
      }
    }
    stats.matches = result.matches.size();
    stats.total_ms = stats.translate_ms + stats.prefilter_ms +
                     stats.permission_ms;
    RecordQueryStats(stats);
  }
  return results;
}

std::vector<const Contract*> DatabaseSnapshot::Candidates(
    const automata::Buchi& query_ba, uint64_t clock,
    const QueryOptions& options) const {
  CTDB_OBS_SPAN(span, "query.prefilter");
  // Live versions: the pruning condition evaluated over the index (§4), or
  // all of them with the prefilter off. Dead contracts are scrubbed from
  // the index by Unregister/Replace, but the live mask is ANDed in anyway —
  // exactness must not hinge on index hygiene.
  [[maybe_unused]] size_t condition_size = 0;
  bool overflowed = false;
  Bitset live;
  if (options.use_prefilter && options_.build_prefilter) {
    const index::Condition condition =
        index::ExtractPruningCondition(query_ba, options.pruning, &overflowed);
    condition_size = condition.Size();
    live = condition.Evaluate(prefilter_);
    live.Resize(contracts_.size());
    live &= live_;
  } else {
    live = live_;
  }
  // A live version's index entry holds at every clock since its valid_from.
  std::vector<const Contract*> candidates;
  for (size_t id : live.Indices()) {
    if (contracts_[id]->valid_from <= clock) {
      candidates.push_back(contracts_[id].get());
    }
  }
  // History is never indexed, so every version visible at `clock` is
  // checked in full. At the latest clock none is.
  for (const ContractVersion& v : history_->versions()) {
    if (v.VisibleAt(clock)) candidates.push_back(v.contract.get());
  }
  std::sort(candidates.begin(), candidates.end(), ById);
  CTDB_OBS_SPAN_ATTR(span, "candidates", candidates.size());
  CTDB_OBS_SPAN_ATTR(span, "condition_size", condition_size);
  CTDB_OBS_SPAN_ATTR(span, "overflow", overflowed);
  return candidates;
}

std::vector<const Contract*> DatabaseSnapshot::VisibleAt(uint64_t seq) const {
  // At any clock a contract id has at most one visible version: live
  // versions are open-ended ([valid_from, ∞)) and historical periods of the
  // same id are disjoint (each Replace closes the old period exactly where
  // the new one opens).
  std::vector<const Contract*> visible;
  for (const auto& c : contracts_) {
    if (c != nullptr && c->valid_from <= seq) visible.push_back(c.get());
  }
  for (const ContractVersion& v : history_->versions()) {
    if (v.VisibleAt(seq)) visible.push_back(v.contract.get());
  }
  std::sort(visible.begin(), visible.end(), ById);
  return visible;
}

size_t DatabaseSnapshot::ContractMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& c : contracts_) {
    if (c != nullptr) bytes += c->automaton().MemoryUsage();
  }
  // Superseded versions never alias live slots (Replace installs a fresh
  // Contract; Unregister empties the slot), so summing both is exact.
  for (const ContractVersion& v : history_->versions()) {
    bytes += v.contract->automaton().MemoryUsage();
  }
  return bytes;
}

size_t DatabaseSnapshot::ProjectionMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& c : contracts_) {
    if (c != nullptr) bytes += c->projections.stats().partition_memory_bytes;
  }
  for (const ContractVersion& v : history_->versions()) {
    bytes += v.contract->projections.stats().partition_memory_bytes;
  }
  return bytes;
}

}  // namespace ctdb::broker

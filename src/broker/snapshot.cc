#include "broker/snapshot.h"

#include <algorithm>
#include <utility>

#include "core/compatibility.h"
#include "core/witness.h"
#include "ltl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ctdb::broker {

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
  return RunQuery(query, &factory, options, pool);
}

Result<QueryResult> DatabaseSnapshot::QueryFormula(
    const ltl::Formula* query, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // The translation below rebuilds `query` into this local factory (NNF
  // normalization copies the formula first), so callers may pass formulas
  // owned by any factory — including the database's shared one — without
  // the read path interning into it.
  ltl::FormulaFactory factory;
  return RunQuery(query, &factory, options, pool);
}

void DatabaseSnapshot::CheckCandidate(const Contract& contract,
                                      const automata::Buchi& query_ba,
                                      const Bitset& query_events,
                                      const QueryOptions& options,
                                      std::vector<uint32_t>* matches,
                                      std::vector<LassoWord>* witnesses,
                                      core::PermissionStats* stats) const {
  const bool use_projection =
      options.use_projections && options_.build_projections;
  const automata::Buchi& contract_ba =
      use_projection ? contract.projections.ForQueryEvents(query_events)
                     : contract.automaton();
  // Seed states were computed on the registered automaton; the quotient has
  // different state ids, so only pass them through when applicable.
  const Bitset* seeds = use_projection ? nullptr : &contract.seed_states;
  if (core::Permits(contract_ba, contract.events, query_ba,
                    options.permission, seeds, stats)) {
    matches->push_back(contract.id);
    if (options.collect_witnesses) {
      // Witnesses come from the *registered* automaton: the simplified
      // projection's labels are projected, so its runs are not directly
      // presentable contract behavior.
      auto witness = core::FindWitness(contract.automaton(), contract.events,
                                       query_ba);
      witnesses->push_back(witness.has_value() ? std::move(*witness)
                                               : LassoWord{});
    }
  }
}

Result<QueryResult> DatabaseSnapshot::RunQuery(const ltl::Formula* query,
                                               ltl::FormulaFactory* factory,
                                               const QueryOptions& options,
                                               util::ThreadPool* pool) const {
  QueryResult result;
  result.stats.database_size = live_count_;
  Timer total;
  CTDB_OBS_SPAN(query_span, "query");

  // 1. LTL → BA (charged to the query in both modes, §7.3), through the
  // shared translation cache when the database configured one: a repeated
  // query structure costs one canonical-key build and a hash probe instead
  // of the tableau pipeline. The miss path opens its own "translate" span.
  Timer phase;
  bool cache_hit = false;
  CTDB_ASSIGN_OR_RETURN(
      const std::shared_ptr<const automata::Buchi> query_ba_ptr,
      translate::LtlToBuchiCached(query, factory, translation_cache_.get(),
                                  options_.translate, nullptr, &cache_hit));
  const automata::Buchi& query_ba = *query_ba_ptr;
  result.stats.translate_ms = phase.ElapsedMillis();
  result.stats.translate_cache_hit = cache_hit;
  result.stats.query_states = query_ba.StateCount();
  result.stats.query_transitions = query_ba.TransitionCount();

  // Time travel: an as_of clock strictly before this snapshot's diverts to
  // the historical engine (full scan over the reconstructed version set); a
  // clock at or past the snapshot is just "latest" and stays on this path.
  if (options.as_of != 0 && options.as_of < clock_) {
    return RunQueryAsOf(query_ba, options, std::move(result), &total);
  }

  // 2. Prefilter: pruning condition → candidate set (§4).
  phase.Reset();
  Bitset candidates;
  {
    CTDB_OBS_SPAN(prefilter_span, "query.prefilter");
    Prefiltered prefiltered = Prefilter(query_ba, options);
    candidates = std::move(prefiltered.candidates);
    CTDB_OBS_SPAN_ATTR(prefilter_span, "candidates", candidates.Count());
    CTDB_OBS_SPAN_ATTR(prefilter_span, "condition_size",
                       prefiltered.condition_size);
    CTDB_OBS_SPAN_ATTR(prefilter_span, "overflow", prefiltered.overflowed);
  }
  result.stats.prefilter_ms = phase.ElapsedMillis();
  result.stats.candidates = candidates.Count();

  // 3. Permission checks over candidates (§3.1 / §5.2), on the given
  // executor when more than one thread is requested.
  phase.Reset();
  CTDB_OBS_SPAN(permission_span, "query.permission");
  const Bitset query_events = query_ba.CitedEvents();

  const std::vector<size_t> candidate_ids = candidates.ToVector();
  const size_t threads =
      std::min(ResolveThreads(options.threads, pool),
               candidate_ids.size() == 0 ? size_t{1} : candidate_ids.size());
  if (threads <= 1) {
    for (size_t idx : candidate_ids) {
      CheckCandidate(*contracts_[idx], query_ba, query_events, options,
                     &result.matches, &result.witnesses,
                     &result.stats.permission);
    }
  } else {
    // Strided static partition (shard t takes candidates t, t+threads, …):
    // spreads expensive contracts across shards. Concurrent shards may touch
    // the same contract only across *different* queries; within this query
    // each contract belongs to exactly one shard, and the lazy quotient
    // caches are internally synchronized anyway. Results are re-sorted by
    // contract id afterwards.
    struct Shard {
      std::vector<uint32_t> matches;
      std::vector<LassoWord> witnesses;
      core::PermissionStats stats;
    };
    std::vector<Shard> shards(threads);
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, threads, [&](size_t t) -> Status {
      for (size_t i = t; i < candidate_ids.size(); i += threads) {
        CheckCandidate(*contracts_[candidate_ids[i]], query_ba, query_events,
                       options, &shards[t].matches, &shards[t].witnesses,
                       &shards[t].stats);
      }
      return Status::OK();
    }));
    std::vector<std::pair<uint32_t, LassoWord>> merged;
    for (Shard& shard : shards) {
      for (size_t i = 0; i < shard.matches.size(); ++i) {
        merged.emplace_back(shard.matches[i],
                            options.collect_witnesses
                                ? std::move(shard.witnesses[i])
                                : LassoWord{});
      }
      result.stats.permission.MergeFrom(shard.stats);
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [id, witness] : merged) {
      result.matches.push_back(id);
      if (options.collect_witnesses) {
        result.witnesses.push_back(std::move(witness));
      }
    }
  }
  result.stats.permission_ms = phase.ElapsedMillis();
  result.stats.matches = result.matches.size();
  result.stats.total_ms = total.ElapsedMillis();
  CTDB_OBS_SPAN_ATTR(query_span, "candidates", result.stats.candidates);
  CTDB_OBS_SPAN_ATTR(query_span, "matches", result.stats.matches);
  RecordQueryStats(result.stats);
  return result;
}

DatabaseSnapshot::Prefiltered DatabaseSnapshot::Prefilter(
    const automata::Buchi& query_ba, const QueryOptions& options) const {
  Prefiltered out;
  if (!options.use_prefilter || !options_.build_prefilter) {
    out.candidates = live_;
    return out;
  }
  const index::Condition condition = index::ExtractPruningCondition(
      query_ba, options.pruning, &out.overflowed);
  out.condition_size = condition.Size();
  // Dead contracts are scrubbed from the index by Unregister/Replace, but
  // the live mask is ANDed in anyway — exactness must not hinge on index
  // hygiene.
  out.candidates = condition.Evaluate(prefilter_);
  out.candidates.Resize(contracts_.size());
  out.candidates &= live_;
  return out;
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
  std::sort(visible.begin(), visible.end(),
            [](const Contract* a, const Contract* b) { return a->id < b->id; });
  return visible;
}

Result<QueryResult> DatabaseSnapshot::RunQueryAsOf(
    const automata::Buchi& query_ba, const QueryOptions& options,
    QueryResult result, Timer* total) const {
  if (options.as_of < history_->floor()) {
    return Status::InvalidArgument(
        "as_of " + std::to_string(options.as_of) +
        " is below the retention floor " + std::to_string(history_->floor()) +
        ": history there has been discarded");
  }
  CTDB_OBS_SPAN(asof_span, "query.as_of");
  CTDB_OBS_COUNT("broker.queries.as_of", 1);
  Timer phase;
  const std::vector<const Contract*> visible = VisibleAt(options.as_of);
  result.stats.database_size = visible.size();
  result.stats.prefilter_ms = phase.ElapsedMillis();
  result.stats.candidates = visible.size();

  // Full scan: every visible version gets a real permission check. The
  // prefilter only indexes live contracts, so using it here could drop
  // historical matches — exactness wins over speed for audit queries.
  phase.Reset();
  const Bitset query_events = query_ba.CitedEvents();
  for (const Contract* contract : visible) {
    CheckCandidate(*contract, query_ba, query_events, options,
                   &result.matches, &result.witnesses,
                   &result.stats.permission);
  }
  result.stats.permission_ms = phase.ElapsedMillis();
  result.stats.matches = result.matches.size();
  result.stats.total_ms = total->ElapsedMillis();
  CTDB_OBS_SPAN_ATTR(asof_span, "visible", visible.size());
  CTDB_OBS_SPAN_ATTR(asof_span, "matches", result.stats.matches);
  RecordQueryStats(result.stats);
  return result;
}

Result<std::vector<QueryResult>> DatabaseSnapshot::QueryBatch(
    const std::vector<std::string>& queries, const QueryOptions& options,
    util::ThreadPool* pool) const {
  // Phase 1 (serial): parse every query read-only against the snapshot
  // vocabulary, so unknown-event typos fail the whole batch up front (the
  // same contract Query offers).
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

  std::vector<QueryResult> results(queries.size());
  // Historical batches take the serial path unconditionally: the parallel
  // phases below are built around the live prefilter, while as-of
  // evaluation is a per-query full scan (RunQuery diverts internally).
  const size_t threads =
      options.as_of != 0
          ? 1
          : std::min(ResolveThreads(options.threads, pool),
                     queries.size() == 0 ? size_t{1} : queries.size());
  if (threads <= 1) {
    // Serial: exactly a sequence of Query calls.
    for (size_t i = 0; i < queries.size(); ++i) {
      CTDB_ASSIGN_OR_RETURN(results[i],
                            RunQuery(formulas[i], &factory, options, nullptr));
    }
    return results;
  }

  // Phase 2 (parallel across queries): translate and prefilter. Workers
  // parse into thread-local factories; every shared structure they read
  // (vocabulary, prefilter) is frozen in this snapshot.
  struct Prep {
    Status status = Status::OK();
    std::shared_ptr<const automata::Buchi> ba;
    Bitset query_events;
    std::vector<size_t> candidates;
  };
  std::vector<Prep> preps(queries.size());
  const size_t prep_workers = threads;
  {
    CTDB_OBS_SPAN(prep_span, "query_batch.prep");
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, prep_workers, [&](size_t t)
                                             -> Status {
      ltl::FormulaFactory local_factory;
      for (size_t i = t; i < queries.size(); i += prep_workers) {
        Prep& prep = preps[i];
        QueryStats& stats = results[i].stats;
        stats.database_size = live_count_;
        Timer phase;
        auto parsed = ltl::Parse(queries[i], &local_factory, *vocab_);
        if (!parsed.ok()) {
          prep.status = parsed.status();
          continue;
        }
        bool cache_hit = false;
        auto ba = translate::LtlToBuchiCached(*parsed, &local_factory,
                                              translation_cache_.get(),
                                              options_.translate, nullptr,
                                              &cache_hit);
        if (!ba.ok()) {
          prep.status = ba.status();
          continue;
        }
        prep.ba = std::move(*ba);
        stats.translate_ms = phase.ElapsedMillis();
        stats.translate_cache_hit = cache_hit;
        stats.query_states = prep.ba->StateCount();
        stats.query_transitions = prep.ba->TransitionCount();

        phase.Reset();
        prep.candidates = Prefilter(*prep.ba, options).candidates.ToVector();
        stats.prefilter_ms = phase.ElapsedMillis();
        stats.candidates = prep.candidates.size();
        prep.query_events = prep.ba->CitedEvents();
      }
      return Status::OK();
    }));
    for (const Prep& prep : preps) {
      CTDB_RETURN_NOT_OK(prep.status);
    }
  }

  // Phase 3 (parallel across contract shards): permission checks for the
  // whole batch. Sharding is by contract id — shard s owns the contracts
  // with id ≡ s (mod shards) for *every* query — so each contract's lazy
  // quotient cache is touched by exactly one shard (the same invariant the
  // single-query strided partition provides) while being shared across all
  // queries of the batch.
  const size_t shards = threads;
  struct ShardOut {
    std::vector<uint32_t> matches;
    std::vector<LassoWord> witnesses;
    core::PermissionStats stats;
    double elapsed_ms = 0;
  };
  std::vector<ShardOut> out(queries.size() * shards);
  {
    CTDB_OBS_SPAN(perm_span, "query_batch.permission");
    CTDB_OBS_SPAN_ATTR(perm_span, "shards", shards);
    CTDB_RETURN_NOT_OK(pool->ParallelFor(0, shards, [&](size_t s) -> Status {
      for (size_t q = 0; q < queries.size(); ++q) {
        ShardOut& shard = out[q * shards + s];
        Timer timer;
        for (size_t idx : preps[q].candidates) {
          if (idx % shards != s) continue;
          CheckCandidate(*contracts_[idx], *preps[q].ba, preps[q].query_events,
                         options, &shard.matches, &shard.witnesses,
                         &shard.stats);
        }
        shard.elapsed_ms = timer.ElapsedMillis();
      }
      return Status::OK();
    }));
  }

  // Phase 4 (serial): merge each query's shards, sorted by contract id.
  CTDB_OBS_SPAN(merge_span, "query_batch.merge");
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryResult& result = results[q];
    std::vector<std::pair<uint32_t, LassoWord>> merged;
    for (size_t s = 0; s < shards; ++s) {
      ShardOut& shard = out[q * shards + s];
      for (size_t i = 0; i < shard.matches.size(); ++i) {
        merged.emplace_back(shard.matches[i],
                            options.collect_witnesses
                                ? std::move(shard.witnesses[i])
                                : LassoWord{});
      }
      result.stats.permission.MergeFrom(shard.stats);
      result.stats.permission_ms += shard.elapsed_ms;
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [id, witness] : merged) {
      result.matches.push_back(id);
      if (options.collect_witnesses) {
        result.witnesses.push_back(std::move(witness));
      }
    }
    result.stats.matches = result.matches.size();
    result.stats.total_ms = result.stats.translate_ms +
                            result.stats.prefilter_ms +
                            result.stats.permission_ms;
    RecordQueryStats(result.stats);
  }
  return results;
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

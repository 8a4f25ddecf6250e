// An immutable, queryable view of the contract database.
//
// A DatabaseSnapshot is the unit of publication in the broker's RCU-style
// concurrency model (DESIGN.md §8): ContractDatabase keeps master state on
// the writer side and, after every successful registration, publishes a new
// snapshot by swapping a shared_ptr under a tiny mutex. Snapshots are
// deeply immutable —
// the vocabulary, the contract vector and the prefilter index are frozen at
// publication — so any number of threads can query one snapshot, or
// different snapshots, with no locking on the read path. The only mutation a
// query performs is warming per-contract lazy quotient caches, which are
// internally synchronized (projection/store.h) and shared across snapshots
// that share a contract.
//
// Structural sharing keeps publication cheap: consecutive snapshots share
// the Contract objects (shared_ptr), the prefilter shards the registration
// did not touch (copy-on-write, index/prefilter.h), and — when no event was
// interned — the vocabulary.
//
// Queries parse and translate with a caller-local formula factory (never the
// database's shared one) and resolve events read-only against the snapshot
// vocabulary, so the read path allocates no shared state at all.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/buchi.h"
#include "base/run.h"
#include "base/vocabulary.h"
#include "broker/contract.h"
#include "broker/history.h"
#include "broker/stats.h"
#include "core/permission.h"
#include "index/prefilter.h"
#include "index/pruning.h"
#include "ltl/formula.h"
#include "projection/store.h"
#include "translate/cache.h"
#include "translate/ltl_to_ba.h"
#include "util/result.h"
#include "util/timer.h"

namespace ctdb::util {
class ThreadPool;
}

namespace ctdb::broker {

/// How much contract history to retain for `as_of` queries (DESIGN.md §14).
struct RetentionOptions {
  /// Number of recent system-clock ticks whose history must stay
  /// answerable: after a checkpoint at clock `c`, superseded versions dead
  /// at or before `c - keep_history_seqs` may be discarded and the as-of
  /// floor raised there. 0 (the default) keeps all history forever.
  uint64_t keep_history_seqs = 0;
};

/// Registration-time configuration.
struct DatabaseOptions {
  /// Maintain the prefiltering index (§4).
  bool build_prefilter = true;
  index::PrefilterOptions prefilter;

  /// Precompute simplified projections (§5).
  bool build_projections = true;
  projection::ProjectionStoreOptions projections;

  /// LTL → BA pipeline settings.
  translate::TranslateOptions translate;

  /// Entry budget for the shared query-translation cache
  /// (translate/cache.h): repeated query structures skip the tableau
  /// pipeline entirely. 0 disables caching (every query translates afresh —
  /// the paper-faithful ablation baseline). Registration-side translations
  /// never consult the cache; it serves the read path only.
  size_t translation_cache_capacity = 256;

  /// Default concurrency for the database's parallel phases (registration
  /// precompute, per-candidate permission checks, batched queries). The
  /// database lazily creates one shared executor (util::ThreadPool), grown
  /// in place to the largest concurrency ever requested, and reuses it
  /// across calls — no per-call thread spawn/join. 1 (the default)
  /// reproduces the paper's single-threaded prototype byte-for-byte: no
  /// pool is created and every phase runs inline on the calling thread.
  /// QueryOptions::threads overrides this per query.
  size_t threads = 1;

  /// A call's concurrency: `requested`, or `threads` when it is 0; at
  /// least 1.
  size_t ResolveThreads(size_t requested) const {
    const size_t resolved = requested == 0 ? threads : requested;
    return resolved == 0 ? 1 : resolved;
  }

  /// Number of independent durable shards the contract space is partitioned
  /// into — consumed by shard::ShardedDatabase::Open (DESIGN.md §13), where
  /// 0 means "adopt whatever the directory's manifest records". Ignored by
  /// ContractDatabase/DurableDatabase themselves: a single instance is
  /// always exactly one shard.
  size_t shards = 1;

  /// History retention for time-travel queries. Applied by the durable
  /// layer at checkpoint time (the natural pruning point: the checkpoint
  /// image is what re-seeds history on recovery).
  RetentionOptions retention;
};

/// Query-time configuration.
struct QueryOptions {
  /// Use the prefiltering index to restrict permission checks to candidates.
  bool use_prefilter = true;
  /// Use the precomputed simplified projections for the permission checks.
  bool use_projections = true;
  /// Also extract, for every match, a concrete allowed event sequence that
  /// satisfies the query (a witness; see core/witness.h). Witnesses are
  /// computed on the registered automata, so they are real contract runs.
  bool collect_witnesses = false;
  /// Number of threads for the per-candidate permission checks; the workload
  /// is embarrassingly parallel across candidates (§7.4 makes the same
  /// observation for the registration-time precompute). 0 (the default)
  /// inherits DatabaseOptions::threads; 1 forces single-threaded evaluation.
  /// Parallel checks run on the database's shared executor, not on per-call
  /// threads.
  size_t threads = 0;
  /// Permission algorithm knobs (Algorithm 2 vs SCC, seeds).
  core::PermissionOptions permission;
  index::PruningOptions pruning;

  /// Time travel: answer against the contract set as of this system clock
  /// (DESIGN.md §14) instead of the live set. 0 (the default) means
  /// "latest"; clock 0 itself is never assigned to a mutation, so the
  /// sentinel is unambiguous. A value at or above the snapshot's clock is
  /// clamped to "latest"; a value below the retention floor is
  /// InvalidArgument (history there has been discarded, an exact answer is
  /// impossible). The prefilter prunes the live versions visible at the
  /// clock as it does for a latest query; superseded versions are not
  /// indexed, so each one visible at the clock gets a full check.
  uint64_t as_of = 0;
};

/// A query's outcome.
struct QueryResult {
  std::vector<uint32_t> matches;  ///< ids of contracts permitting the query
  /// When QueryOptions::collect_witnesses is set: witnesses[i] demonstrates
  /// matches[i] (same order and length as `matches`).
  std::vector<LassoWord> witnesses;
  QueryStats stats;
};

/// \brief A frozen view of the database: the full query engine over an
/// immutable contract set.
///
/// Obtained from ContractDatabase::Snapshot(); remains valid (and continues
/// to answer from the state it captured) for as long as the shared_ptr is
/// held, regardless of later registrations. All members are safe to call
/// concurrently.
class DatabaseSnapshot {
 public:
  DatabaseSnapshot() = default;

  /// Evaluates an LTL query against this snapshot. Queries must cite only
  /// events known to the snapshot (unknown events cannot be permitted by any
  /// contract — they are an error, to catch typos early).
  ///
  /// `pool` is an optional executor for the parallel phases, used with
  /// QueryOptions::threads-way concurrency; with nullptr every phase runs
  /// inline on the calling thread. ContractDatabase::Query passes its
  /// shared executor.
  Result<QueryResult> Query(std::string_view ltl_text,
                            const QueryOptions& options = {},
                            util::ThreadPool* pool = nullptr) const;

  /// Evaluates a pre-parsed query formula. The formula may come from any
  /// factory (it is rebuilt into a local one before translation).
  Result<QueryResult> QueryFormula(const ltl::Formula* query,
                                   const QueryOptions& options = {},
                                   util::ThreadPool* pool = nullptr) const;

  /// \brief Evaluates many LTL queries in one call.
  ///
  /// Returns one QueryResult per query, each identical (matches and
  /// witnesses) to what Query would return for that text. Batching amortizes
  /// executor dispatch across the whole batch and shares each contract's
  /// lazy quotient cache across all queries: with `threads` > 1 the
  /// translate/prefilter phase parallelizes across queries and the
  /// permission phase gives each contract to one worker for every query
  /// that selects it (see Run). On any parse error, no query is evaluated.
  ///
  /// Per-query stats are filled as in Query: `permission_ms` is the summed
  /// time of that query's checks, so with `threads` > 1 it, and `total_ms`
  /// (translate + prefilter + permission), can exceed the wall clock.
  Result<std::vector<QueryResult>> QueryBatch(
      const std::vector<std::string>& queries, const QueryOptions& options = {},
      util::ThreadPool* pool = nullptr) const;

  /// Number of *live* contracts in this snapshot (unregistered ones leave
  /// holes — see slot_count()).
  size_t size() const { return live_count_; }

  /// Number of id slots ever allocated (== one past the largest id). Ids
  /// are never reused, so dead contracts leave nullptr holes in the slot
  /// table and `slot_count() >= size()`.
  size_t slot_count() const { return contracts_.size(); }

  /// The live contract with id `id` (requires `is_live(id)`). The reference
  /// is valid for the snapshot's lifetime.
  const Contract& contract(uint32_t id) const { return *contracts_[id]; }

  /// The contract in slot `id`, or nullptr when the slot is a hole (dead
  /// contract) or out of range.
  const Contract* contract_or_null(uint32_t id) const {
    return id < contracts_.size() ? contracts_[id].get() : nullptr;
  }

  bool is_live(uint32_t id) const {
    return id < contracts_.size() && contracts_[id] != nullptr;
  }

  /// Count of mutations applied (the dense WAL sequence — what checkpoint
  /// coverage is keyed by).
  uint64_t ops() const { return ops_; }

  /// System-period clock of the last mutation (== ops() unsharded;
  /// router-assigned, sparse per shard, when sharded). The `as_of` axis.
  uint64_t sequence() const { return clock_; }

  /// Superseded contract versions (never null).
  const HistoryStore& history() const { return *history_; }
  const std::shared_ptr<const HistoryStore>& history_ptr() const {
    return history_;
  }

  const Vocabulary& vocabulary() const { return *vocab_; }
  const index::PrefilterIndex& prefilter() const { return prefilter_; }
  const DatabaseOptions& options() const { return options_; }

  /// The contract versions visible as-of clock `seq`: live contracts with
  /// valid_from <= seq plus history versions whose period covers seq. One
  /// version per contract id, sorted by id. Pointers stay valid for the
  /// snapshot's lifetime. Callers owning exactness (time-travel queries,
  /// stream sessions) must check `seq` against history().floor() first.
  std::vector<const Contract*> VisibleAt(uint64_t seq) const;

  /// Aggregate footprint of the auxiliary structures (§7.4).
  size_t PrefilterMemoryUsage() const {
    return prefilter_.Stats().memory_bytes;
  }
  size_t ContractMemoryUsage() const;
  size_t ProjectionMemoryUsage() const;

 private:
  friend class ContractDatabase;  ///< the only producer of non-empty snapshots

  /// Query and QueryFormula: `query` as a batch of one, translated into
  /// `factory`, under a "query" span.
  Result<QueryResult> RunOne(const ltl::Formula* query,
                             ltl::FormulaFactory* factory,
                             const QueryOptions& options,
                             util::ThreadPool* pool) const;

  /// The query engine behind Query, QueryFormula and QueryBatch (DESIGN.md
  /// §6): per query translate (into `factory` when one thread translates)
  /// → Candidates, one permission phase over all queries' candidates (under
  /// a span named `permission_span`), one merge by contract id.
  Result<std::vector<QueryResult>> Run(
      const std::vector<const ltl::Formula*>& formulas,
      ltl::FormulaFactory* factory, const QueryOptions& options,
      util::ThreadPool* pool, const char* permission_span) const;

  /// The versions visible at `clock` that the query's pruning condition
  /// keeps (§4), sorted by id: live versions from the index, every
  /// visible history version (history is not indexed).
  std::vector<const Contract*> Candidates(const automata::Buchi& query_ba,
                                          uint64_t clock,
                                          const QueryOptions& options) const;

  DatabaseOptions options_;
  std::shared_ptr<const Vocabulary> vocab_ = std::make_shared<Vocabulary>();
  /// Slot table indexed by contract id; nullptr = unregistered (hole).
  std::vector<std::shared_ptr<const Contract>> contracts_;
  /// Bit i set iff slot i holds a live contract.
  Bitset live_;
  size_t live_count_ = 0;
  uint64_t ops_ = 0;    ///< dense mutation count (WAL sequence)
  uint64_t clock_ = 0;  ///< system-period clock of the last mutation
  std::shared_ptr<const HistoryStore> history_ =
      std::make_shared<HistoryStore>();
  index::PrefilterIndex prefilter_;
  /// The database's shared query-translation cache (translate/cache.h),
  /// handed to every published snapshot: a formula translated through one
  /// snapshot is a hit for queries on any other. Null or disabled ⇒ every
  /// query translates afresh. The cache is internally synchronized, so
  /// sharing it does not compromise snapshot immutability — cached automata
  /// are immutable values behind shared_ptr.
  std::shared_ptr<translate::TranslationCache> translation_cache_;
};

}  // namespace ctdb::broker

// The contract database / temporal broker (Section 3).
//
// Registration translates a contract's LTL specification to a BA, inserts it
// into the prefiltering index (§4) and precomputes its simplified projections
// (§5). Query evaluation translates the query, extracts its pruning
// condition, evaluates the condition against the index to obtain candidates,
// and runs the permission algorithm on each candidate's best simplified
// projection. Every optimization can be toggled, which is how the benchmarks
// compare the unoptimized scan of §3 against the optimized system of §7.
//
// Concurrency model (DESIGN.md §8): the database is snapshot-isolated.
// Registration mutates writer-side master state under an internal mutex and
// then publishes an immutable DatabaseSnapshot by swapping a shared_ptr;
// Query/QueryFormula/QueryBatch are const and run entirely against the
// snapshot current when they were called. Any number of reader threads may
// query concurrently with each other and with writers; writers serialize on
// the internal mutex (concurrent Register* calls are safe, just not
// parallel). A query observes either all of a registration or none of it,
// and a failed registration is never observable.

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "automata/buchi.h"
#include "base/vocabulary.h"
#include "broker/snapshot.h"
#include "broker/stats.h"
#include "ltl/formula.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ctdb::broker {

/// \brief The broker's temporal-specification store.
///
/// Owns the vocabulary and the formula factory; contracts and queries are
/// expressed against the shared vocabulary (Section 1, requirement ii).
class ContractDatabase {
 public:
  explicit ContractDatabase(const DatabaseOptions& options = {});

  /// Registers a contract given as LTL text (clauses conjoined with '&').
  /// New event names are interned into the vocabulary.
  ///
  /// Every mutating call takes an optional system-period `clock` (DESIGN.md
  /// §14): 0 (the default) self-assigns the next tick (`sequence() + 1` —
  /// the unsharded case, where clock == mutation count), while an explicit
  /// value stamps that clock (the sharded router and recovery replay both
  /// assign clocks externally). An explicit clock must exceed sequence().
  Result<uint32_t> Register(std::string name, std::string_view ltl_text,
                            RegistrationStats* stats = nullptr,
                            uint64_t clock = 0);

  /// Registers a pre-parsed contract formula (writer-side entry point: the
  /// formula must come from this database's factory() — see there).
  Result<uint32_t> RegisterFormula(std::string name, const ltl::Formula* spec,
                                   std::string ltl_text = {},
                                   RegistrationStats* stats = nullptr,
                                   uint64_t clock = 0);

  /// Registers a contract from its already-translated automaton (the
  /// persistence loader's path): skips the LTL→BA translation but performs
  /// every other registration-time precomputation. `events` must be the
  /// events cited by the contract's specification (Definition 5).
  Result<uint32_t> RegisterAutomaton(std::string name, std::string ltl_text,
                                     automata::Buchi ba, Bitset events,
                                     RegistrationStats* stats = nullptr,
                                     uint64_t clock = 0);

  /// \brief Unregisters the live contract `id`.
  ///
  /// The contract's current version moves to the history store with its
  /// period closed at the operation's clock; its id is never reused (the
  /// slot becomes a hole). Queries observe the removal atomically, as-of
  /// queries below the clock keep seeing the contract. Returns the clock
  /// the removal happened at. NotFound when `id` is not live.
  Result<uint64_t> Unregister(uint32_t id, uint64_t clock = 0);

  /// \brief Replaces the live contract `id`'s specification, keeping its id
  /// and name.
  ///
  /// The superseded version (projections included) moves to the history
  /// store, the new version becomes live at the operation's clock, and
  /// the prefilter swaps entries copy-on-write. Returns the clock of the
  /// supersession. NotFound when `id` is not live; on any parse/translate
  /// error nothing changes.
  Result<uint64_t> Replace(uint32_t id, std::string_view ltl_text,
                           RegistrationStats* stats = nullptr,
                           uint64_t clock = 0);

  /// Drops history versions fully dead at or before `horizon` and raises
  /// the as-of retention floor there (RetentionOptions). Publishes.
  void PruneHistory(uint64_t horizon);

  /// \name Persistence-restore hooks (broker/persistence.cc only).
  ///
  /// The loader rebuilds a database image that may contain holes, history
  /// and counters that plain Register* calls cannot reproduce. None of
  /// these advance ops/clock — RestoreLifecycle stamps the saved counters
  /// at the end of the load.
  /// @{

  /// Installs a live contract at exactly slot `id` (>= slot_count();
  /// intervening slots become holes), with its saved system period start.
  /// Runs the full registration-time precompute (seeds, projections,
  /// prefilter).
  Result<uint32_t> RestoreContract(uint32_t id, std::string name,
                                   std::string ltl_text, automata::Buchi ba,
                                   Bitset events, uint64_t valid_from);

  /// Appends a superseded version `[valid_from, valid_to)` of contract `id`
  /// to the history store (projections precomputed so as-of queries answer
  /// at full fidelity after a restart).
  Status RestoreHistoryVersion(uint32_t id, std::string name,
                               std::string ltl_text, automata::Buchi ba,
                               Bitset events, uint64_t valid_from,
                               uint64_t valid_to);

  /// Finishes a restore: pads trailing holes out to `slot_count`, raises
  /// the history floor, stamps the mutation count and system clock, and
  /// publishes.
  Status RestoreLifecycle(uint64_t ops, uint64_t clock, uint64_t history_floor,
                          uint64_t slot_count);
  /// @}

  /// One contract of a batch registration.
  struct BatchEntry {
    std::string name;
    std::string ltl_text;
  };

  /// Registers many contracts at once, running the expensive per-contract
  /// work (LTL→BA translation, seed computation, projection precomputation —
  /// §7.4 observes this workload is "completely parallel") on the shared
  /// executor with `threads`-way concurrency (0 inherits
  /// DatabaseOptions::threads). Equivalent to registering the entries in
  /// order; returns their ids. On any error nothing is registered, and
  /// queries never observe a partially committed batch (one snapshot is
  /// published at the end). `clocks`, when given, must hold one
  /// strictly-increasing clock per entry (the sharded router's path);
  /// nullptr self-assigns consecutive ticks.
  Result<std::vector<uint32_t>> RegisterBatch(
      const std::vector<BatchEntry>& entries, size_t threads = 0,
      const std::vector<uint64_t>* clocks = nullptr);

  /// Interns an event into the vocabulary without registering a contract,
  /// and publishes the change, if any, so subsequent queries may cite it.
  /// Returns the event's id (the existing one if already interned). This is
  /// the writer-side way to introduce query-only events (e.g. the
  /// persistence loader restoring a vocabulary larger than its contracts
  /// cite).
  Result<EventId> InternEvent(std::string_view name);

  /// \brief The current immutable snapshot.
  ///
  /// The returned view is frozen: later registrations do not affect it, and
  /// it stays valid as long as the shared_ptr is held. Use it to run a
  /// sequence of queries against one consistent state, or to keep serving a
  /// consistent state while registration proceeds.
  std::shared_ptr<const DatabaseSnapshot> Snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return snapshot_;
  }

  /// Evaluates an LTL query against the current snapshot. Queries must cite
  /// only registered events (unknown events cannot be permitted by any
  /// contract — they are an error, to catch typos early). Safe to call
  /// concurrently with registrations and other queries; parses and
  /// translates with a call-local formula factory, never this database's.
  Result<QueryResult> Query(std::string_view ltl_text,
                            const QueryOptions& options = {}) const;

  /// Evaluates a pre-parsed query formula against the current snapshot. The
  /// formula may come from any factory (including factory()); it is rebuilt
  /// into a call-local one before translation.
  Result<QueryResult> QueryFormula(const ltl::Formula* query,
                                   const QueryOptions& options = {}) const;

  /// Evaluates many LTL queries in one call against the current snapshot —
  /// one consistent state for the whole batch. See
  /// DatabaseSnapshot::QueryBatch for the batching contract and stats
  /// semantics.
  Result<std::vector<QueryResult>> QueryBatch(
      const std::vector<std::string>& queries,
      const QueryOptions& options = {}) const;

  /// Live-contract count of the current snapshot.
  size_t size() const { return Snapshot()->size(); }
  /// Id slots ever allocated (ids are never reused; see
  /// DatabaseSnapshot::slot_count()).
  size_t slot_count() const { return Snapshot()->slot_count(); }
  /// Mutations applied so far (the dense WAL sequence).
  uint64_t op_count() const { return Snapshot()->ops(); }
  /// System-period clock of the last mutation (the `as_of` axis).
  uint64_t last_sequence() const { return Snapshot()->sequence(); }
  /// The live contract with id `id`. The reference stays valid as long as
  /// some snapshot (or the history store) retains the version — holding the
  /// Snapshot() you resolved it through is the safe pattern.
  const Contract& contract(uint32_t id) const {
    return Snapshot()->contract(id);
  }

  /// Writer-side accessor to the master vocabulary. Direct interning through
  /// it becomes visible to queries only at the next publication (any
  /// successful Register* call); prefer InternEvent, which publishes
  /// immediately. Must not be called concurrently with writers.
  Vocabulary* vocabulary() { return &vocab_; }
  /// Writer-side read of the master vocabulary (may be ahead of the
  /// published snapshot's); for a concurrency-safe view use
  /// Snapshot()->vocabulary().
  const Vocabulary& vocabulary() const { return vocab_; }
  /// The shared formula factory used by registration. Writer-side: formulas
  /// built here may be passed to RegisterFormula; the factory is not
  /// thread-safe, so don't use it concurrently with writers.
  ltl::FormulaFactory* factory() { return &factory_; }

  /// Writer-side view of the master prefilter index (may be ahead of the
  /// published snapshot's); for a concurrency-safe view use
  /// Snapshot()->prefilter().
  const index::PrefilterIndex& prefilter() const { return prefilter_; }
  const DatabaseOptions& options() const { return options_; }

  /// Aggregate footprint of the auxiliary structures (§7.4), measured on the
  /// current snapshot.
  size_t PrefilterMemoryUsage() const {
    return Snapshot()->PrefilterMemoryUsage();
  }
  size_t ContractMemoryUsage() const {
    return Snapshot()->ContractMemoryUsage();
  }
  size_t ProjectionMemoryUsage() const {
    return Snapshot()->ProjectionMemoryUsage();
  }

  /// \brief Scrapes the process-wide metrics registry: counters, gauges and
  /// histograms for every instrumented pipeline layer (translate.*,
  /// prefilter.*, permission.*, projection.*, threadpool.*, broker.*).
  /// The registry is process-global (instrumentation sites live deep inside
  /// layers that have no database handle), so in a multi-database process
  /// the snapshot aggregates across databases. Runtime on/off:
  /// obs::Configure / obs::SetEnabled / the CTDB_OBS environment variable;
  /// compile-time: the CTDB_OBS CMake option.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// Cumulative counters of the shared query-translation cache
  /// (translate/cache.h). All zeros (capacity included) when the cache was
  /// disabled via DatabaseOptions::translation_cache_capacity = 0.
  translate::TranslationCacheStats TranslationCacheStats() const {
    return translation_cache_->Stats();
  }

 private:
  /// Registration bodies; the caller holds writer_mutex_.
  Result<uint32_t> RegisterFormulaLocked(std::string name,
                                         const ltl::Formula* spec,
                                         std::string ltl_text,
                                         RegistrationStats* stats,
                                         uint64_t clock);
  Result<uint32_t> RegisterAutomatonLocked(std::string name,
                                           std::string ltl_text,
                                           automata::Buchi ba, Bitset events,
                                           RegistrationStats* stats,
                                           uint64_t clock);

  /// The one place a contract version is built: validates `ba`, computes
  /// seed states and projections (on `pool`) and fills `stats` when set.
  /// Touches no master state, so batch workers may call it concurrently.
  Result<std::unique_ptr<Contract>> BuildContract(
      uint32_t id, std::string name, std::string ltl_text, automata::Buchi ba,
      Bitset events, uint64_t valid_from, util::ThreadPool* pool,
      RegistrationStats* stats) const;

  /// Resolves an optional caller clock (0 = self-assign the next tick);
  /// InvalidArgument when an explicit clock does not advance. The caller
  /// holds writer_mutex_.
  Result<uint64_t> ResolveClockLocked(uint64_t clock) const;

  /// Builds a snapshot of the master state and publishes it; the caller
  /// holds writer_mutex_ (the constructor publishes without it — no
  /// concurrent access exists yet). Cheap: structural sharing everywhere,
  /// plus one vocabulary copy when events were interned since the last
  /// publication.
  void Publish();

  /// Resolves a per-call thread count (0 = inherit the database default).
  size_t ResolveThreads(size_t requested) const;

  /// Returns the shared executor with at least `threads - 1` workers (the
  /// calling thread participates in ParallelFor, so `threads`-way
  /// concurrency needs one fewer worker), creating it or growing it in
  /// place on demand. Returns nullptr for threads <= 1. Safe to call
  /// concurrently (readers and writers both use it).
  util::ThreadPool* EnsurePool(size_t threads) const;

  DatabaseOptions options_;

  /// Serializes all writers (Register*, InternEvent). Readers never take
  /// it — they go through snapshot_.
  std::mutex writer_mutex_;

  // --- master state, mutated only under writer_mutex_ -------------------
  Vocabulary vocab_;
  ltl::FormulaFactory factory_;
  /// Slot table indexed by contract id; nullptr = unregistered (hole).
  std::vector<std::shared_ptr<const Contract>> contracts_;
  Bitset live_;         ///< bit i set iff contracts_[i] is live
  uint64_t ops_ = 0;    ///< dense mutation count (the WAL sequence)
  uint64_t clock_ = 0;  ///< system-period clock of the last mutation
  /// Superseded contract versions; immutable stores swapped copy-on-append
  /// so published snapshots share them. Never null.
  std::shared_ptr<const HistoryStore> history_ =
      std::make_shared<HistoryStore>();
  index::PrefilterIndex prefilter_;
  /// Shared query-translation cache, created once at construction and handed
  /// to every published snapshot (internally synchronized; see
  /// translate/cache.h). Never null.
  std::shared_ptr<translate::TranslationCache> translation_cache_;
  /// The vocabulary copy the last published snapshot points at; reused by
  /// Publish while no new event was interned (the vocabulary is
  /// append-only, so equal size ⇒ identical contents).
  std::shared_ptr<const Vocabulary> published_vocab_;

  /// The published snapshot. Guarded by a dedicated mutex held only for
  /// the shared_ptr copy/swap — never while a snapshot is being built — so
  /// a reader's wait is bounded by a pointer assignment, not by writer
  /// work. (A std::atomic<std::shared_ptr> would express this directly,
  /// but libstdc++ implements it with a spinlock whose element-pointer
  /// access ThreadSanitizer cannot model, and the TSan CI job gates on
  /// this path.)
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const DatabaseSnapshot> snapshot_;

  /// Shared executor for every parallel phase; created lazily and grown in
  /// place (util::ThreadPool::Grow) when a call requests more concurrency
  /// than any before it, so references held by in-flight calls stay valid.
  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace ctdb::broker

// Horizontal sharding: the contract space hash-partitioned across N
// independent durable instances behind one scatter-gather router
// (DESIGN.md §13).
//
// Partitioning. Global contract ids are striped across shards:
//
//   shard(id)  = id % N          local(id) = id / N
//   global(shard k, local l) = l * N + k
//
// A fresh database therefore assigns global ids 0,1,2,... round-robin —
// byte-identical id assignment to an unsharded database, which is what the
// differential suite (sharded_database_test) holds it to. The striping is
// also crash-stable: a contract's global id is a function of its shard and
// its shard-local slot index alone, so after a crash that tears different
// amounts off different shards' logs every surviving contract keeps its id
// (the global id space simply has holes where unlucky shards lost their
// unacked tails). Registration always routes to the shard with the lowest
// next global id, which refills those holes before extending the space.
// Routing is by slot count, not live count: Unregister leaves a hole in its
// shard's slot table (ids are never reused — a recycled id would corrupt
// the as_of history), so lifecycle ops route deterministically by
// shard(id) = id % N while new registrations keep striping off the end.
//
// Clocks. Each mutation ticks one global system-period clock held by the
// router (recovered as the max of the shards' clocks); the ticked value is
// passed down via the shards' *WithClock entry points and stamped into the
// contract's [valid_from, valid_to) period and WAL record. Per-shard clocks
// are therefore sparse but mutually comparable, which is exactly what
// QueryAsOf's scatter-gather needs: a shard whose clock is behind `as_of`
// simply answers with its latest state — correct, because it had no
// mutations in between (DESIGN.md §14).
//
// Durability. Each shard is a full broker::DurableDatabase with its own WAL
// and checkpoint directory — its own group commit, its own fsync cadence,
// its own log device if the deployment mounts them that way. A
// registration is acknowledged when ITS shard made it durable; shards never
// wait for each other. Recovery replays all shard logs in parallel on the
// router's thread pool: wall time is the slowest shard, not the sum
// (bench_wal measures recovery ms vs shard count).
//
// Vocabulary. The paper's vocabulary is global (contracts and queries share
// one event namespace), so the router keeps every shard's vocabulary a
// superset of the union: Register broadcasts the new contract's cited
// events to the other shards (DurableDatabase::InternEvent — deliberately
// not WAL-logged), and Open re-broadcasts the union after recovery. A query
// unknown to one shard is therefore unknown to all, and error parity with
// an unsharded database holds (NotFound for typo'd events).
//
// Queries scatter to every shard (each evaluates against its own contracts,
// translation caches and all) and gather: matches are re-mapped to global
// ids and merged in ascending id order with their witnesses; stats merge as
// documented on Query below.
//
// Errors. Every fan-out runs all shards and reports the lowest-numbered
// shard's error under one rule: Internal, Corruption and Unavailable report
// that shard's own state and are prefixed with its directory ("shard-001:
// ..."); every other code keeps the wording an unsharded database gives, so
// a bad request reads the same in any topology.
//
// Topology. The root directory carries a MANIFEST (shard/manifest.h)
// recording shard count and directories; Open fails with InvalidArgument on
// a mismatch instead of silently mis-routing, and with Corruption naming
// the damaged shard when one shard's log is broken mid-file (healthy
// shards' recovery is unaffected — persistence_corruption_test holds each
// shard's damage to that shard).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "broker/broker.h"
#include "broker/durable.h"
#include "shard/manifest.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "wal/wal.h"

namespace ctdb::obs {
class Counter;
}

namespace ctdb::shard {

/// What opening (== recovering) every shard found and did.
struct ShardedRecoveryStats {
  size_t shards = 0;
  double wall_ms = 0;          ///< wall time of the parallel open
  double replay_ms_sum = 0;    ///< summed per-shard replay time (CPU view)
  size_t records_replayed = 0;
  uint64_t bytes_scanned = 0;
  bool tail_truncated = false; ///< any shard treated a torn tail as EOF
  std::vector<broker::RecoveryStats> per_shard;
};

/// \brief N durable databases behind one contract-id-striped router.
///
/// Thread safety matches DurableDatabase: queries are safe concurrently
/// with each other and with registrations (scatter-gather runs on the
/// router's own pool); Register calls from multiple threads serialize on
/// the router's route lock; Checkpoint may run concurrently with
/// everything. After Close every operation but StreamClose returns
/// Status::Unavailable.
class ShardedDatabase : public broker::Broker {
 public:
  /// Opens (creating directory + manifest if needed) or recovers a sharded
  /// database rooted at `dir`. `options.shards` picks the topology for a
  /// fresh directory and must match the manifest of an existing one
  /// (0 adopts the manifest; fresh directories then default to 1 shard).
  /// All shard logs are replayed in parallel; recovery_stats() reports the
  /// per-shard breakdown.
  static Result<std::unique_ptr<ShardedDatabase>> Open(
      std::string dir, const wal::DurabilityOptions& durability = {},
      const broker::DatabaseOptions& options = {});

  ~ShardedDatabase() override;
  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  /// Registers a contract on the shard owning the next global id and
  /// returns that global id once the shard made the record durable. The
  /// contract's events are then broadcast to the other shards' vocabularies
  /// (a query concurrent with the broadcast may still see NotFound for a
  /// brand-new event — indistinguishable from being sequenced before the
  /// Register).
  Result<uint32_t> Register(std::string name, std::string_view ltl_text,
                            broker::RegistrationStats* stats = nullptr) override;

  /// Registers a batch, striping entries round-robin across shards and
  /// committing the per-shard sub-batches in parallel. Entries are
  /// pre-validated (parse only) so a malformed entry fails the whole batch
  /// with nothing registered anywhere — same all-or-nothing surface as the
  /// unsharded database for every error the validator can catch; a shard
  /// I/O failure mid-commit is reported but cannot un-commit other shards.
  Result<std::vector<uint32_t>> RegisterBatch(
      const std::vector<broker::ContractDatabase::BatchEntry>& entries) override;

  /// Unregisters global contract `id` on its owning shard (id % N) and
  /// returns the global clock of the removal once durable. The slot is
  /// never reused; NotFound names the global id.
  Result<uint64_t> Unregister(uint32_t id) override;

  /// Replaces global contract `id`'s specification in place (same global
  /// id, new [valid_from, ∞) version) and returns the global clock once
  /// durable. The new text's events are broadcast to the other shards.
  Result<uint64_t> Replace(uint32_t id, std::string_view ltl_text,
                           broker::RegistrationStats* stats = nullptr) override;

  /// Evaluates the query on every shard in parallel and merges: matches
  /// (and their witnesses) re-mapped to global ids, ascending; candidate /
  /// match / database-size counts summed; translate_ms and prefilter_ms the
  /// max across shards (they run in parallel); permission_ms the sum (CPU
  /// view); total_ms the scatter-gather wall time. Error parity: an error
  /// (parse failure, unknown event) is the lowest-numbered shard's status,
  /// worded as unsharded — the broadcast vocabulary makes all shards agree.
  Result<broker::QueryResult> Query(
      std::string_view ltl_text,
      const broker::QueryOptions& options = {}) const override;

  /// QueryBatch with the same scatter-gather and merge semantics as Query,
  /// applied per query; each shard evaluates the whole batch against one of
  /// its snapshots.
  Result<std::vector<broker::QueryResult>> QueryBatch(
      const std::vector<std::string>& queries,
      const broker::QueryOptions& options = {}) const override;

  /// \name Streaming compliance monitor (DESIGN.md §15), scatter-gather.
  ///
  /// Open resolves one global pin clock (options.as_of, or the router clock
  /// at open) and opens a same-named session on every shard at that clock —
  /// per-shard clocks are mutually comparable (see header), so a shard
  /// behind the pin clamps to its latest state, exactly like QueryAsOf.
  /// Append scatters each batch to every shard in parallel and gathers the
  /// verdict deltas re-mapped to global ids in ascending order, summing the
  /// stepped/pruned counters. A shard failure during Open rolls back the
  /// sessions already opened, so a stream is open on all shards or none.
  /// @{
  Result<monitor::StreamOpenInfo> StreamOpen(
      std::string name, const monitor::StreamOptions& options = {}) override;
  Result<monitor::StreamAppendResult> StreamAppend(
      std::string_view name, const monitor::EventBatch& events) override;
  Result<monitor::StreamCloseInfo> StreamClose(std::string_view name) override;
  /// @}

  /// Checkpoints every shard in parallel; returns the lowest-numbered
  /// shard's error but attempts all shards regardless.
  Status Checkpoint() override;

  /// Closes every shard; idempotent, run by the destructor.
  Status Close() override;

  /// Total live contracts across shards.
  size_t size() const override;

  /// Global system-period clock: the tick of the latest acknowledged
  /// mutation on any shard (the `as_of` axis).
  uint64_t last_sequence() const override;

  obs::MetricsSnapshot Metrics() const override;

  size_t shard_count() const { return shards_.size(); }
  /// Shard `k`'s database (tests and tools; read-mostly).
  const broker::DurableDatabase& shard(size_t k) const { return *shards_[k]; }
  const std::string& dir() const { return dir_; }
  const ShardedRecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  /// \name Id striping (see header comment).
  /// @{
  static size_t ShardOfId(uint32_t global_id, size_t shards) {
    return global_id % shards;
  }
  static uint32_t LocalId(uint32_t global_id, size_t shards) {
    return global_id / static_cast<uint32_t>(shards);
  }
  static uint32_t GlobalId(size_t shard, uint32_t local_id, size_t shards) {
    return local_id * static_cast<uint32_t>(shards) +
           static_cast<uint32_t>(shard);
  }
  /// @}

 private:
  ShardedDatabase(std::string dir,
                  std::vector<std::unique_ptr<broker::DurableDatabase>> shards,
                  std::unique_ptr<util::ThreadPool> pool,
                  ShardedRecoveryStats recovery_stats);

  /// Shard owning the lowest next global id, given per-shard slot counts
  /// (the route target of the next registration).
  static size_t RouteShard(const std::vector<uint64_t>& slots);

  /// Re-reads shard `k`'s slot count into the route table and raises the
  /// global clock to its clock. Caller holds route_mutex_.
  void ResyncLocked(size_t k);

  /// The lifecycle path: runs `mutate(shard, local id, clock)` on the owner
  /// of global contract `id` at the next global clock, then resyncs; a dead
  /// id is NotFound naming the global id. Caller holds route_mutex_.
  Result<uint64_t> MutateOwnerLocked(
      uint32_t id, const std::function<Result<uint64_t>(
                       broker::DurableDatabase&, uint32_t, uint64_t)>& mutate);

  /// Interns every event cited by shard `from`'s contract `local_id` into
  /// all other shards. Caller holds route_mutex_.
  Status BroadcastEventsLocked(size_t from, uint32_t local_id);

  Status CheckOpen() const {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("sharded database is closed");
    }
    return Status::OK();
  }

  const std::string dir_;
  std::vector<std::unique_ptr<broker::DurableDatabase>> shards_;
  /// Scatter-gather executor (min(shards, hardware) workers). The calling
  /// thread participates in ParallelFor, so even a 1-worker pool fans out.
  std::unique_ptr<util::ThreadPool> pool_;
  ShardedRecoveryStats recovery_stats_;

  /// Serializes routing decisions, the per-shard slot table and the global
  /// clock, so id and clock assignment are race-free even with concurrent
  /// mutating threads.
  mutable std::mutex route_mutex_;
  std::vector<uint64_t> slots_;  ///< per-shard slot counts (route view)
  uint64_t clock_ = 0;           ///< global system-period clock

  std::atomic<bool> closed_{false};

  /// Per-shard "shard.<k>.registrations" counters plus the aggregate
  /// handles, resolved once at Open (the CTDB_OBS_* macros cache per-site,
  /// which a per-shard dynamic name cannot use).
  std::vector<obs::Counter*> register_counters_;
};

}  // namespace ctdb::shard

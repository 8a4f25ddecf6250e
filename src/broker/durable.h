// Durable broker: the contract database behind a write-ahead log, with
// group commit, checkpointing and crash recovery (DESIGN.md §10).
//
// `DurableDatabase` wraps a `ContractDatabase` and a `wal::LogWriter`.
// Every mutation — Register, Unregister, Replace — applies to the in-memory
// database (snapshot-isolated, so queries may observe it immediately) and
// then appends a WAL record; it returns Ok only once the record is durable
// under the configured `wal::FsyncPolicy`. A crash therefore loses at most
// the mutations whose call had not yet returned — everything acknowledged
// is recovered (verified by the crash-point property test).
//
// A checkpoint pins the current snapshot, writes it as a full SaveSnapshot
// image to `checkpoint-<sequence>.ctdb` (temp file + atomic rename, so a
// crash mid-checkpoint never damages the previous one), seals the log below
// it by rotating to a fresh segment, appends a kCheckpoint record, and
// deletes every sealed segment whose records the image covers — bounding
// both log size and recovery time.
//
// Recovery (`RecoverDatabase`) loads the newest valid checkpoint (falling
// back to older ones, then to an empty database), replays the segments'
// mutation records past it in sequence order — Register, Unregister and
// Replace alike, with their recorded system-period clocks — treats a torn
// or CRC-corrupt tail as a clean end of log (wal/segment.h), and reports
// any damage before the tail — including a mutation-sequence gap — as
// Status::Corruption.

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/database.h"
#include "monitor/monitor.h"
#include "util/result.h"
#include "wal/wal.h"
#include "wal/writer.h"

namespace ctdb::broker {

/// "checkpoint-000000000042.ctdb" for sequence 42.
std::string CheckpointFileName(uint64_t sequence);
bool ParseCheckpointFileName(std::string_view name, uint64_t* sequence);

/// What recovery found and did.
struct RecoveryStats {
  uint64_t checkpoint_sequence = 0;   ///< 0 = recovered without a checkpoint
  std::string checkpoint_file;        ///< name of the loaded checkpoint
  size_t checkpoints_skipped = 0;     ///< newer checkpoints that failed to load
  size_t segments_scanned = 0;
  size_t records_replayed = 0;
  size_t records_skipped = 0;         ///< records the checkpoint already covers
  uint64_t bytes_scanned = 0;
  bool tail_truncated = false;        ///< a torn tail was treated as end-of-log
  uint64_t last_sequence = 0;         ///< == recovered database op count
  uint64_t next_segment_index = 1;    ///< where a writer should continue
  double checkpoint_load_ms = 0;
  double replay_ms = 0;
  /// Per-segment bookkeeping handed to the log writer for checkpoint
  /// truncation (max mutation sequence each sealed segment holds).
  std::vector<wal::LogWriter::SegmentInfo> sealed_segments;
};

/// \brief Rebuilds a database from a WAL directory.
///
/// Loads the newest checkpoint that deserializes cleanly and replays every
/// registration record with a later sequence. Returns Status::Corruption
/// when the log is damaged anywhere but the tail: an invalid frame followed
/// by a valid one, a sequence gap or regression, a record whose replayed
/// registration fails, or a checkpointed image that cannot be reconciled
/// with the surviving log. A torn tail only sets
/// RecoveryStats::tail_truncated.
Result<std::unique_ptr<ContractDatabase>> RecoverDatabase(
    const std::string& dir, const DatabaseOptions& options = {},
    RecoveryStats* stats = nullptr);

/// \brief A contract database whose registrations survive crashes.
///
/// Thread safety matches ContractDatabase: queries are safe concurrently
/// with each other and with registrations; Register calls from multiple
/// threads are safe and share group commits. Checkpoint may run
/// concurrently with everything (it pins a snapshot). After Close,
/// mutations, StreamOpen, StreamAppend and Checkpoint return
/// Status::Unavailable; queries and StreamClose stay legal.
class DurableDatabase : public Broker {
 public:
  /// Opens (creating the directory if needed) or recovers a durable
  /// database. The WAL continues in a fresh segment — recovery never
  /// appends to a possibly-torn file.
  static Result<std::unique_ptr<DurableDatabase>> Open(
      std::string dir, const wal::DurabilityOptions& durability = {},
      const DatabaseOptions& options = {});

  ~DurableDatabase() override;
  DurableDatabase(const DurableDatabase&) = delete;
  DurableDatabase& operator=(const DurableDatabase&) = delete;

  /// Registers a contract and returns once its WAL record is durable under
  /// the configured fsync policy. Queries may observe the registration
  /// slightly before it is durable (never after a failure).
  Result<uint32_t> Register(std::string name, std::string_view ltl_text,
                            RegistrationStats* stats = nullptr) override {
    return RegisterWithClock(std::move(name), ltl_text, stats, 0);
  }

  /// Registers a batch atomically (all-or-nothing in memory, one WAL group
  /// on disk). Returns once every record of the batch is durable.
  Result<std::vector<uint32_t>> RegisterBatch(
      const std::vector<ContractDatabase::BatchEntry>& entries) override {
    return RegisterBatchWithClocks(entries, nullptr);
  }

  /// Unregisters the live contract `id`; Ok only once the kUnregister
  /// record is durable. Returns the system-period clock of the removal.
  Result<uint64_t> Unregister(uint32_t id) override {
    return UnregisterWithClock(id, 0);
  }

  /// Replaces the live contract `id`'s specification; Ok only once the
  /// kReplace record is durable. Returns the clock of the supersession.
  Result<uint64_t> Replace(uint32_t id, std::string_view ltl_text,
                           RegistrationStats* stats = nullptr) override {
    return ReplaceWithClock(id, ltl_text, stats, 0);
  }

  /// \name Explicit-clock mutation variants (the sharded router's path).
  ///
  /// `clock` = 0 self-assigns the next tick (== the unsharded WAL
  /// sequence); the router passes its global clock so valid periods are
  /// comparable across shards (DESIGN.md §14).
  /// @{
  Result<uint32_t> RegisterWithClock(std::string name,
                                     std::string_view ltl_text,
                                     RegistrationStats* stats, uint64_t clock);
  Result<std::vector<uint32_t>> RegisterBatchWithClocks(
      const std::vector<ContractDatabase::BatchEntry>& entries,
      const std::vector<uint64_t>* clocks);
  Result<uint64_t> UnregisterWithClock(uint32_t id, uint64_t clock);
  Result<uint64_t> ReplaceWithClock(uint32_t id, std::string_view ltl_text,
                                    RegistrationStats* stats, uint64_t clock);
  /// @}

  /// Interns a query-only event into the vocabulary, publishing it
  /// immediately (see ContractDatabase::InternEvent). Deliberately NOT
  /// logged to the WAL: recovery rebuilds the vocabulary from the replayed
  /// contracts alone, so interned-but-uncited events do not survive a
  /// restart. The sharded router (src/shard) relies on exactly that — it
  /// re-broadcasts the union vocabulary across shards at Open.
  Result<EventId> InternEvent(std::string_view name) {
    return db_->InternEvent(name);
  }

  /// \name Read path — forwards to the wrapped snapshot-isolated database.
  /// @{
  Result<QueryResult> Query(std::string_view ltl_text,
                            const QueryOptions& options = {}) const override {
    return db_->Query(ltl_text, options);
  }
  Result<std::vector<QueryResult>> QueryBatch(
      const std::vector<std::string>& queries,
      const QueryOptions& options = {}) const override {
    return db_->QueryBatch(queries, options);
  }
  std::shared_ptr<const DatabaseSnapshot> Snapshot() const {
    return db_->Snapshot();
  }
  size_t size() const override { return db_->size(); }
  /// Slot-table width (live contracts + holes left by Unregister); the next
  /// registration's id. The sharded router routes off this, not size().
  size_t slot_count() const { return db_->slot_count(); }
  /// Dense mutation count (== the WAL sequence of the latest record).
  uint64_t op_count() const { return db_->op_count(); }
  const Contract& contract(uint32_t id) const { return db_->contract(id); }
  /// The wrapped database (read-only: registering through it directly would
  /// bypass the log).
  const ContractDatabase& database() const { return *db_; }
  /// @}

  /// \name Streaming compliance monitor (DESIGN.md §15).
  ///
  /// Streams pin the current snapshot (or a historical clock) at open and
  /// are served entirely from it; they are ephemeral — never WAL-logged —
  /// so a restart forgets them. Unavailable after Close().
  /// @{
  Result<monitor::StreamOpenInfo> StreamOpen(
      std::string name, const monitor::StreamOptions& options = {}) override;
  Result<monitor::StreamAppendResult> StreamAppend(
      std::string_view name, const monitor::EventBatch& events) override;
  Result<monitor::StreamCloseInfo> StreamClose(std::string_view name) override;
  /// The embedded stream registry (tests and tools).
  const monitor::StreamMonitor& stream_monitor() const { return monitor_; }
  /// @}

  /// Writes a checkpoint now and truncates the log below it. Serialized
  /// against the automatic background checkpoint.
  Status Checkpoint() override;

  /// Flushes and stops the log writer; further mutations are Unavailable.
  /// Run by the destructor; idempotent.
  Status Close() override;

  /// System-period clock of the latest applied mutation (the `as_of`
  /// axis; == the dense mutation count when clocks are self-assigned).
  uint64_t last_sequence() const override { return db_->last_sequence(); }

  /// Scrape of the process-wide metrics registry (Broker interface).
  obs::MetricsSnapshot Metrics() const override {
    return db_->MetricsSnapshot();
  }

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  const wal::DurabilityOptions& durability_options() const {
    return durability_;
  }
  const std::string& dir() const { return dir_; }

 private:
  DurableDatabase(std::string dir, const wal::DurabilityOptions& durability,
                  std::unique_ptr<ContractDatabase> db,
                  std::unique_ptr<wal::LogWriter> writer,
                  RecoveryStats recovery_stats);

  /// Every mutation's one durable path: under append_mutex_, `apply` mutates
  /// db_ and lists its WAL records (sequence 0); Commit numbers them and
  /// enqueues them in one call (one group), then waits outside the lock
  /// until all are durable. Unavailable after Close.
  Status Commit(const std::function<Status(std::vector<wal::Record>*)>& apply);

  Status CheckOpen() const {
    if (closed_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("durable database is closed");
    }
    return Status::OK();
  }

  /// Launches a background checkpoint when checkpoint_log_bytes is
  /// configured and exceeded.
  void MaybeScheduleCheckpoint();
  /// Best-effort deletion of checkpoint files older than `sequence` and of
  /// stale checkpoint temp files.
  void DeleteOldCheckpoints(uint64_t sequence);

  const std::string dir_;
  const wal::DurabilityOptions durability_;
  std::unique_ptr<ContractDatabase> db_;
  std::unique_ptr<wal::LogWriter> writer_;
  RecoveryStats recovery_stats_;
  /// Open event streams over db_'s snapshots (internally synchronized).
  monitor::StreamMonitor monitor_;

  /// Orders apply-then-enqueue across writers so on-disk record order
  /// equals mutation-sequence order.
  std::mutex append_mutex_;
  /// Dense mutation count (the WAL sequence); guarded by append_mutex_.
  /// Seeded from recovery, advanced by every Register/Unregister/Replace.
  uint64_t sequence_ = 0;
  std::atomic<bool> closed_{false};

  /// Serializes checkpoints (manual vs background).
  std::mutex checkpoint_mutex_;
  std::mutex checkpoint_thread_mutex_;
  std::thread checkpoint_thread_;
  std::atomic<bool> checkpoint_running_{false};
};

}  // namespace ctdb::broker

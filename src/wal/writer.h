// The group-commit log writer: leader-follower group commit in the
// committing threads, with no thread of its own.
//
// A caller enqueues its records with Enqueue, which frames them and returns
// a ticket, then blocks in Wait(ticket). A waiter that finds no group in
// flight becomes the leader: it takes everything queued, writes it with a
// single `write`, makes it durable per the fsync policy, and wakes the
// others. Records enqueued while a leader is busy wait for the next leader,
// which writes them all as one group — so concurrent commits share an fsync
// without anyone sleeping for company. Wait returns Ok only once the
// caller's records are durable, so an acknowledged append is durable by
// construction. RotateSegment and Close take the same leader role, writing
// what is queued before they act.
//
// Ordering contract: records are written in enqueue order. The owner
// (broker::DurableDatabase) enqueues mutation records while holding its
// append mutex, so on-disk order equals mutation-sequence order — which
// recovery then verifies — and one Enqueue call always lands in one group.
//
// I/O errors are sticky: the first failed write/fsync fails its whole group
// and every later append, so a caller can never get an Ok for a record
// behind a hole in the log.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace ctdb::wal {

/// \brief Appends records to segment files with group commit.
class LogWriter {
 public:
  /// A sealed (no longer written) segment, remembered for checkpoint
  /// truncation.
  struct SegmentInfo {
    uint64_t index = 0;
    /// Highest mutation sequence the segment holds (0 = none). Every
    /// mutating record type — kRegister, kUnregister, kReplace — advances
    /// it; kCheckpoint records are bookkeeping and do not.
    uint64_t max_sequence = 0;
    uint64_t bytes = 0;
  };

  /// Creates the writer and its first segment file
  /// `dir/SegmentFileName(next_segment_index)`. `recovered_segments`
  /// carries the sealed segments recovery found on disk so they remain
  /// candidates for checkpoint truncation. The writer never appends to a
  /// pre-existing segment — a recovered torn tail stays untouched on disk
  /// and unreferenced by the record sequence.
  static Result<std::unique_ptr<LogWriter>> Open(
      std::string dir, uint64_t next_segment_index,
      const DurabilityOptions& options,
      std::vector<SegmentInfo> recovered_segments = {});

  ~LogWriter();
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Queues `records`, in order, for the next group and returns the ticket
  /// to Wait on. Never blocks on I/O. Unavailable after Close; the sticky
  /// error after an I/O failure.
  Result<uint64_t> Enqueue(std::span<const Record> records);

  /// Returns once every record enqueued up to `ticket` is durable per the
  /// fsync policy (for kNever: written to the OS), leading groups as
  /// needed; the sticky error if one of them failed.
  Status Wait(uint64_t ticket);

  /// Enqueue + Wait for one record.
  Status Append(const Record& record);

  /// Seals the current segment and starts a new one; returns once every
  /// previously enqueued record is written and the new segment exists.
  Status RotateSegment();

  /// Writes everything enqueued so far, then seals the current segment.
  /// Further appends and rotations are Unavailable. Idempotent; also run by
  /// the destructor.
  Status Close();

  /// Deletes every sealed segment whose mutating records all have sequence
  /// <= `sequence` (they are covered by a checkpoint). Never touches the
  /// open segment.
  Status DeleteSegmentsCoveredBy(uint64_t sequence);

  /// Log bytes appended since the last ResetBytesSinceCheckpoint (drives
  /// automatic checkpoint scheduling).
  uint64_t bytes_since_checkpoint() const {
    return bytes_since_checkpoint_.load(std::memory_order_relaxed);
  }
  void ResetBytesSinceCheckpoint() {
    bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  }

  uint64_t current_segment_index() const {
    return current_segment_index_.load(std::memory_order_relaxed);
  }

  std::vector<SegmentInfo> SealedSegments() const;

 private:
  LogWriter(std::string dir, const DurabilityOptions& options,
            std::vector<SegmentInfo> recovered_segments);

  /// Waits until no group is in flight and takes the leader role.
  void Lead(std::unique_lock<std::mutex>* lock);
  /// Hands the leader role back and wakes every waiter.
  void StepDown();
  /// Leader only: writes everything queued as one group, releasing `lock`
  /// around the I/O, then publishes the outcome (durable_ or the sticky
  /// error). A no-op when nothing is queued or an error is sticky.
  void CommitQueued(std::unique_lock<std::mutex>* lock);
  /// Leader only, unlocked: writes and syncs one group of `records` frames.
  Status WriteGroup(std::string_view group, uint64_t records,
                    uint64_t max_sequence);
  /// Leader only: seals the current segment (fsync unless kNever) and opens
  /// the next.
  Status Rotate();
  Status OpenSegment(uint64_t index);
  Status CloseSegmentFile();
  bool ShouldSync() const {
    return options_.fsync_policy != FsyncPolicy::kNever;
  }

  const std::string dir_;
  const DurabilityOptions options_;

  std::mutex mutex_;
  std::condition_variable cv_;
  // Guarded by mutex_. Tickets count records: Enqueue's ticket is
  // enqueued_ after its records; everything through durable_ is durable.
  std::string queued_;  ///< frames awaiting the next group
  uint64_t queued_max_sequence_ = 0;
  uint64_t enqueued_ = 0;
  uint64_t durable_ = 0;
  bool leader_ = false;  ///< a group, rotation or close is in flight
  bool closed_ = false;
  Status sticky_error_;  ///< first I/O failure

  // Leader-only state (the leader role orders every access).
  int fd_ = -1;
  uint64_t segment_bytes_written_ = 0;
  uint64_t segment_max_sequence_ = 0;

  std::atomic<uint64_t> current_segment_index_{0};
  std::atomic<uint64_t> bytes_since_checkpoint_{0};

  mutable std::mutex segments_mutex_;
  std::vector<SegmentInfo> sealed_segments_;
};

}  // namespace ctdb::wal

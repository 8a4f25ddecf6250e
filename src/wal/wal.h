// Durability subsystem (DESIGN.md §10): configuration shared by the record
// format (record.h), segment reader (segment.h), group-commit writer
// (writer.h) and the broker integration (broker/durable.h). Crash-point
// fault injection lives in util/crash_point.h.
//
// The write-ahead log is a directory of segment files `wal-<index>.log`
// holding CRC32C-framed registration records, plus checkpoint files
// `checkpoint-<sequence>.ctdb` (full SaveSnapshot images written atomically).
// Registrations are durable once their record is written and — depending on
// FsyncPolicy — fsynced; recovery loads the newest valid checkpoint and
// replays the records past it (broker/durable.h).

#pragma once

#include <cstddef>
#include <cstdint>

namespace ctdb::wal {

/// When an acknowledged registration is guaranteed to survive a crash.
enum class FsyncPolicy : uint8_t {
  /// fsync before every acknowledgement: a record is durable when its
  /// Register returns Ok. Registrations arriving while an fsync is in
  /// flight share the next one (writer.h), so concurrent commits still
  /// amortize it without waiting for company.
  kAlways,
  /// Never fsync: records are written to the OS immediately but survive
  /// only an orderly process exit, not a power failure. For bulk loads and
  /// tests.
  kNever,
};

const char* FsyncPolicyName(FsyncPolicy policy);

/// Knobs for the durability subsystem (broker::DurableDatabase).
struct DurabilityOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;

  /// Rotate to a new segment once the current one exceeds this size.
  size_t segment_bytes = 8u << 20;

  /// When > 0: automatically run a background checkpoint after this many
  /// log bytes have been appended since the last one. 0 disables automatic
  /// checkpoints (call DurableDatabase::Checkpoint explicitly).
  uint64_t checkpoint_log_bytes = 0;
};

}  // namespace ctdb::wal

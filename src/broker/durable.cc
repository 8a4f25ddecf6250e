#include "broker/durable.h"

#include <cinttypes>

#include <algorithm>
#include <sstream>
#include <utility>

#include "broker/persistence.h"
#include "obs/metrics.h"
#include "util/crash_point.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "wal/record.h"
#include "wal/segment.h"

namespace ctdb::broker {

std::string CheckpointFileName(uint64_t sequence) {
  return StringFormat("checkpoint-%012" PRIu64 ".ctdb", sequence);
}

bool ParseCheckpointFileName(std::string_view name, uint64_t* sequence) {
  constexpr std::string_view kPrefix = "checkpoint-";
  constexpr std::string_view kSuffix = ".ctdb";
  if (!StartsWith(name, kPrefix) ||
      name.size() <= kPrefix.size() + kSuffix.size() ||
      name.substr(name.size() - kSuffix.size()) != kSuffix) {
    return false;
  }
  return ParseUint64(
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()),
      sequence);
}

Result<std::unique_ptr<ContractDatabase>> RecoverDatabase(
    const std::string& dir, const DatabaseOptions& options,
    RecoveryStats* stats_out) {
  Timer total;
  RecoveryStats stats;
  CTDB_ASSIGN_OR_RETURN(std::vector<std::string> names, util::ListDir(dir));

  std::vector<std::pair<uint64_t, std::string>> segments;     // (index, name)
  std::vector<std::pair<uint64_t, std::string>> checkpoints;  // (sequence, name)
  for (const std::string& name : names) {
    uint64_t value = 0;
    if (wal::ParseSegmentFileName(name, &value)) {
      segments.emplace_back(value, name);
    } else if (ParseCheckpointFileName(name, &value)) {
      checkpoints.emplace_back(value, name);
    }
    // Anything else (stale .tmp files, foreign files) is ignored.
  }
  std::sort(segments.begin(), segments.end());
  std::sort(checkpoints.begin(), checkpoints.end());

  // Newest checkpoint that deserializes cleanly wins; a corrupt newer one
  // falls back to an older one (the log below it still exists — segments
  // are only deleted once a *newer* checkpoint record is durable, so the
  // fallback replays correspondingly more log).
  std::unique_ptr<ContractDatabase> db;
  uint64_t base = 0;
  Timer checkpoint_timer;
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    auto loaded = LoadDatabaseFromFile(dir + "/" + it->second, options);
    // A checkpoint is named by the mutation count it covers (not the live
    // contract count — unregistration decouples the two).
    if (loaded.ok() && (*loaded)->op_count() == it->first) {
      db = std::move(*loaded);
      base = it->first;
      stats.checkpoint_sequence = base;
      stats.checkpoint_file = it->second;
      break;
    }
    ++stats.checkpoints_skipped;
  }
  stats.checkpoint_load_ms = checkpoint_timer.ElapsedMillis();
  if (db == nullptr) db = std::make_unique<ContractDatabase>(options);

  Timer replay_timer;
  uint64_t next_expected = base + 1;
  uint64_t max_index = 0;
  for (const auto& [index, name] : segments) {
    max_index = std::max(max_index, index);
    CTDB_ASSIGN_OR_RETURN(std::string data,
                          util::ReadFileToString(dir + "/" + name));
    wal::ParsedSegment parsed;
    const Status status = wal::ParseSegment(data, &parsed);
    if (!status.ok()) {
      return Status::Corruption(name + ": " + status.message());
    }
    ++stats.segments_scanned;
    stats.bytes_scanned += data.size();
    if (parsed.torn_tail) stats.tail_truncated = true;

    uint64_t segment_max_sequence = 0;
    for (const wal::Record& record : parsed.records) {
      if (record.type == wal::RecordType::kCheckpoint) continue;
      segment_max_sequence = std::max(segment_max_sequence, record.sequence);
      if (record.sequence <= base) {
        ++stats.records_skipped;
        continue;
      }
      if (record.sequence != next_expected) {
        return Status::Corruption(StringFormat(
            "mutation sequence gap in %s: expected %" PRIu64 ", found %" PRIu64,
            name.c_str(), next_expected, record.sequence));
      }
      // Replay with the recorded system-period clock so valid periods (and
      // therefore as_of answers) reproduce exactly, sharded or not.
      Status replayed;
      switch (record.type) {
        case wal::RecordType::kRegister: {
          auto id = db->Register(record.name, record.ltl_text, nullptr,
                                 record.clock);
          replayed = id.status();
          if (id.ok() && *id != record.contract_id) {
            return Status::Corruption(StringFormat(
                "replayed record %" PRIu64 " got contract id %u, logged %u",
                record.sequence, *id, record.contract_id));
          }
          break;
        }
        case wal::RecordType::kUnregister:
          replayed = db->Unregister(record.contract_id, record.clock).status();
          break;
        case wal::RecordType::kReplace:
          replayed = db->Replace(record.contract_id, record.ltl_text, nullptr,
                                 record.clock)
                         .status();
          break;
        case wal::RecordType::kCheckpoint:
          break;  // unreachable: skipped above
      }
      if (!replayed.ok()) {
        return Status::Corruption(
            StringFormat("replay of record %" PRIu64, record.sequence) +
            " failed: " + replayed.ToString());
      }
      ++next_expected;
      ++stats.records_replayed;
    }
    stats.sealed_segments.push_back(
        wal::LogWriter::SegmentInfo{index, segment_max_sequence, data.size()});
  }
  stats.replay_ms = replay_timer.ElapsedMillis();
  stats.last_sequence = next_expected - 1;
  stats.next_segment_index = segments.empty() ? 1 : max_index + 1;

  CTDB_OBS_COUNT("wal.recovery.runs", 1);
  CTDB_OBS_COUNT("wal.recovery.records", stats.records_replayed);
  CTDB_OBS_COUNT("wal.recovery.segments", stats.segments_scanned);
  CTDB_OBS_COUNT("wal.recovery.truncated_tails", stats.tail_truncated ? 1 : 0);
  CTDB_OBS_HIST("wal.recovery.ms", static_cast<uint64_t>(total.ElapsedMillis()));
  if (stats_out != nullptr) *stats_out = stats;
  return db;
}

DurableDatabase::DurableDatabase(std::string dir,
                                 const wal::DurabilityOptions& durability,
                                 std::unique_ptr<ContractDatabase> db,
                                 std::unique_ptr<wal::LogWriter> writer,
                                 RecoveryStats recovery_stats)
    : dir_(std::move(dir)),
      durability_(durability),
      db_(std::move(db)),
      writer_(std::move(writer)),
      recovery_stats_(std::move(recovery_stats)),
      sequence_(recovery_stats_.last_sequence) {}

Result<std::unique_ptr<DurableDatabase>> DurableDatabase::Open(
    std::string dir, const wal::DurabilityOptions& durability,
    const DatabaseOptions& options) {
  CTDB_RETURN_NOT_OK(util::CreateDirIfMissing(dir));
  RecoveryStats stats;
  CTDB_ASSIGN_OR_RETURN(std::unique_ptr<ContractDatabase> db,
                        RecoverDatabase(dir, options, &stats));
  CTDB_ASSIGN_OR_RETURN(
      std::unique_ptr<wal::LogWriter> writer,
      wal::LogWriter::Open(dir, stats.next_segment_index, durability,
                           stats.sealed_segments));
  return std::unique_ptr<DurableDatabase>(
      new DurableDatabase(std::move(dir), durability, std::move(db),
                          std::move(writer), std::move(stats)));
}

DurableDatabase::~DurableDatabase() { Close(); }

Status DurableDatabase::Commit(
    const std::function<Status(std::vector<wal::Record>*)>& apply) {
  uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(append_mutex_);
    CTDB_RETURN_NOT_OK(CheckOpen());
    std::vector<wal::Record> records;
    CTDB_RETURN_NOT_OK(apply(&records));
    for (wal::Record& record : records) record.sequence = ++sequence_;
    CTDB_ASSIGN_OR_RETURN(ticket, writer_->Enqueue(records));
  }
  CTDB_RETURN_NOT_OK(writer_->Wait(ticket));
  MaybeScheduleCheckpoint();
  return Status::OK();
}

Result<uint32_t> DurableDatabase::RegisterWithClock(std::string name,
                                                    std::string_view ltl_text,
                                                    RegistrationStats* stats,
                                                    uint64_t clock) {
  uint32_t id = 0;
  CTDB_RETURN_NOT_OK(Commit([&](std::vector<wal::Record>* log) -> Status {
    CTDB_ASSIGN_OR_RETURN(id, db_->Register(name, ltl_text, stats, clock));
    log->push_back(wal::Record::Register(0, db_->last_sequence(), id,
                                         std::move(name),
                                         std::string(ltl_text)));
    return Status::OK();
  }));
  return id;
}

Result<std::vector<uint32_t>> DurableDatabase::RegisterBatchWithClocks(
    const std::vector<ContractDatabase::BatchEntry>& entries,
    const std::vector<uint64_t>* clocks) {
  std::vector<uint32_t> ids;
  CTDB_RETURN_NOT_OK(Commit([&](std::vector<wal::Record>* log) -> Status {
    CTDB_ASSIGN_OR_RETURN(ids, db_->RegisterBatch(entries, 0, clocks));
    // Each record logs its contract's actual valid_from so replay with
    // explicit clocks reproduces the same periods.
    const std::shared_ptr<const DatabaseSnapshot> snapshot = db_->Snapshot();
    for (size_t i = 0; i < entries.size(); ++i) {
      log->push_back(wal::Record::Register(
          0, snapshot->contract(ids[i]).valid_from, ids[i], entries[i].name,
          entries[i].ltl_text));
    }
    return Status::OK();
  }));
  return ids;
}

Result<uint64_t> DurableDatabase::UnregisterWithClock(uint32_t id,
                                                      uint64_t clock) {
  uint64_t at = 0;
  CTDB_RETURN_NOT_OK(Commit([&](std::vector<wal::Record>* log) -> Status {
    CTDB_ASSIGN_OR_RETURN(at, db_->Unregister(id, clock));
    util::CrashPoint("durable.unregister.after_apply");
    log->push_back(wal::Record::Unregister(0, at, id));
    return Status::OK();
  }));
  return at;
}

Result<uint64_t> DurableDatabase::ReplaceWithClock(uint32_t id,
                                                   std::string_view ltl_text,
                                                   RegistrationStats* stats,
                                                   uint64_t clock) {
  uint64_t at = 0;
  CTDB_RETURN_NOT_OK(Commit([&](std::vector<wal::Record>* log) -> Status {
    CTDB_ASSIGN_OR_RETURN(at, db_->Replace(id, ltl_text, stats, clock));
    util::CrashPoint("durable.replace.after_apply");
    log->push_back(wal::Record::Replace(0, at, id, std::string(ltl_text)));
    return Status::OK();
  }));
  return at;
}

Result<monitor::StreamOpenInfo> DurableDatabase::StreamOpen(
    std::string name, const monitor::StreamOptions& options) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  return monitor_.Open(std::move(name), db_->Snapshot(), options);
}

Result<monitor::StreamAppendResult> DurableDatabase::StreamAppend(
    std::string_view name, const monitor::EventBatch& events) {
  CTDB_RETURN_NOT_OK(CheckOpen());
  return monitor_.Append(name, events);
}

Result<monitor::StreamCloseInfo> DurableDatabase::StreamClose(
    std::string_view name) {
  // Allowed even while closing: the stream pinned its snapshot at open, so
  // the summary needs nothing from the log.
  return monitor_.Close(name);
}

Status DurableDatabase::Checkpoint() {
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  CTDB_RETURN_NOT_OK(CheckOpen());
  Timer timer;
  // Retention first: checkpoints are the GC boundary, so history older than
  // the configured window is dropped before the image pins it (ISSUE 9 —
  // the checkpoint-GC story generalized to a retention policy).
  const uint64_t keep = db_->options().retention.keep_history_seqs;
  if (keep > 0) {
    const uint64_t clock = db_->last_sequence();
    if (clock > keep) db_->PruneHistory(clock - keep);
  }
  // Pin: the snapshot is immutable, its op count is the sequence it covers.
  const std::shared_ptr<const DatabaseSnapshot> snapshot = db_->Snapshot();
  const uint64_t sequence = snapshot->ops();
  std::ostringstream image;
  CTDB_RETURN_NOT_OK(SaveSnapshot(*snapshot, &image));
  const std::string file = CheckpointFileName(sequence);
  CTDB_RETURN_NOT_OK(util::WriteFileAtomic(dir_ + "/" + file, image.str()));
  util::CrashPoint("wal.checkpoint.after_publish");
  // Seal the log below the checkpoint so covered segments become deletable;
  // the kCheckpoint record lands in the fresh segment.
  CTDB_RETURN_NOT_OK(writer_->RotateSegment());
  CTDB_RETURN_NOT_OK(writer_->Append(wal::Record::Checkpoint(sequence, file)));
  util::CrashPoint("wal.checkpoint.after_record");
  writer_->ResetBytesSinceCheckpoint();
  CTDB_RETURN_NOT_OK(writer_->DeleteSegmentsCoveredBy(sequence));
  DeleteOldCheckpoints(sequence);
  CTDB_OBS_COUNT("wal.checkpoints", 1);
  CTDB_OBS_HIST("wal.checkpoint_ms",
                static_cast<uint64_t>(timer.ElapsedMillis()));
  return Status::OK();
}

Status DurableDatabase::Close() {
  closed_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(checkpoint_thread_mutex_);
    if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  }
  return writer_->Close();
}

void DurableDatabase::MaybeScheduleCheckpoint() {
  if (durability_.checkpoint_log_bytes == 0 ||
      writer_->bytes_since_checkpoint() < durability_.checkpoint_log_bytes) {
    return;
  }
  if (checkpoint_running_.exchange(true)) return;
  std::lock_guard<std::mutex> lock(checkpoint_thread_mutex_);
  if (closed_.load(std::memory_order_relaxed)) {
    checkpoint_running_.store(false);
    return;
  }
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  checkpoint_thread_ = std::thread([this] {
    // A failed background checkpoint is retried once the next registration
    // crosses the threshold again (bytes_since_checkpoint keeps growing).
    (void)Checkpoint();
    checkpoint_running_.store(false);
  });
}

void DurableDatabase::DeleteOldCheckpoints(uint64_t sequence) {
  auto names = util::ListDir(dir_);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    uint64_t old_sequence = 0;
    const bool stale_checkpoint =
        ParseCheckpointFileName(name, &old_sequence) && old_sequence < sequence;
    // Orphaned atomic-write temps (crash before rename) are safe to drop:
    // only the serialized checkpointer creates them.
    const bool stale_tmp =
        name.size() > 4 && name.substr(name.size() - 4) == ".tmp" &&
        name != CheckpointFileName(sequence) + ".tmp";
    if (stale_checkpoint || stale_tmp) {
      (void)util::RemoveFileIfExists(dir_ + "/" + name);
    }
  }
}

}  // namespace ctdb::broker

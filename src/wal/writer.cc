#include "wal/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/crash_point.h"
#include "util/file_util.h"
#include "util/timer.h"
#include "wal/segment.h"

namespace ctdb::wal {

namespace {

Status WriteAllFd(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("segment write: ") +
                              std::strerror(errno));
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

}  // namespace

LogWriter::LogWriter(std::string dir, const DurabilityOptions& options,
                     std::vector<SegmentInfo> recovered_segments)
    : dir_(std::move(dir)),
      options_(options),
      sealed_segments_(std::move(recovered_segments)) {}

Result<std::unique_ptr<LogWriter>> LogWriter::Open(
    std::string dir, uint64_t next_segment_index,
    const DurabilityOptions& options,
    std::vector<SegmentInfo> recovered_segments) {
  std::unique_ptr<LogWriter> writer(new LogWriter(
      std::move(dir), options, std::move(recovered_segments)));
  CTDB_RETURN_NOT_OK(writer->OpenSegment(next_segment_index));
  return writer;
}

LogWriter::~LogWriter() { Close(); }

Result<uint64_t> LogWriter::Enqueue(std::span<const Record> records) {
  std::string frames;
  uint64_t max_sequence = 0;
  for (const Record& record : records) {
    frames += EncodeFrame(record);
    // Every mutating type advances the segment's sequence watermark;
    // kCheckpoint records are bookkeeping and never pin a segment.
    if (IsMutationType(record.type)) {
      max_sequence = std::max(max_sequence, record.sequence);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return Status::Unavailable("log writer is closed");
  CTDB_RETURN_NOT_OK(sticky_error_);
  queued_ += frames;
  queued_max_sequence_ = std::max(queued_max_sequence_, max_sequence);
  enqueued_ += records.size();
  return enqueued_;
}

Status LogWriter::Wait(uint64_t ticket) {
  Timer wait;
  std::unique_lock<std::mutex> lock(mutex_);
  assert(ticket <= enqueued_ && "tickets come from Enqueue");
  while (durable_ < ticket && sticky_error_.ok()) {
    if (leader_) {
      cv_.wait(lock);
      continue;
    }
    leader_ = true;
    CommitQueued(&lock);
    StepDown();
  }
  const Status status = durable_ >= ticket ? Status::OK() : sticky_error_;
  lock.unlock();
  CTDB_OBS_HIST("wal.commit_wait_us", wait.ElapsedMicros());
  return status;
}

Status LogWriter::Append(const Record& record) {
  CTDB_ASSIGN_OR_RETURN(const uint64_t ticket, Enqueue({&record, 1}));
  return Wait(ticket);
}

Status LogWriter::RotateSegment() {
  std::unique_lock<std::mutex> lock(mutex_);
  Lead(&lock);
  // Re-checked under the role: a Close that led first has sealed the file.
  if (closed_) {
    StepDown();
    return Status::Unavailable("log writer is closed");
  }
  CommitQueued(&lock);
  if (sticky_error_.ok()) {
    lock.unlock();
    const Status status = Rotate();
    lock.lock();
    if (!status.ok()) sticky_error_ = status;
  }
  StepDown();
  return sticky_error_;
}

Status LogWriter::Close() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return sticky_error_;
  closed_ = true;  // nothing is enqueued after this point
  Lead(&lock);
  CommitQueued(&lock);
  lock.unlock();
  const Status close_status = CloseSegmentFile();
  lock.lock();
  if (sticky_error_.ok() && !close_status.ok()) sticky_error_ = close_status;
  StepDown();
  return sticky_error_;
}

Status LogWriter::DeleteSegmentsCoveredBy(uint64_t sequence) {
  std::lock_guard<std::mutex> lock(segments_mutex_);
  Status status;
  std::vector<SegmentInfo> keep;
  size_t deleted = 0;
  for (const SegmentInfo& info : sealed_segments_) {
    if (info.max_sequence > sequence) {
      keep.push_back(info);
      continue;
    }
    const Status remove =
        util::RemoveFileIfExists(dir_ + "/" + SegmentFileName(info.index));
    if (!remove.ok()) {
      if (status.ok()) status = remove;
      keep.push_back(info);
      continue;
    }
    ++deleted;
    util::CrashPoint("wal.gc.after_delete");
  }
  sealed_segments_ = std::move(keep);
  if (deleted > 0) {
    CTDB_OBS_COUNT("wal.segments_deleted", deleted);
    if (ShouldSync()) {
      const Status sync = util::SyncDir(dir_);
      if (status.ok()) status = sync;
    }
  }
  return status;
}

std::vector<LogWriter::SegmentInfo> LogWriter::SealedSegments() const {
  std::lock_guard<std::mutex> lock(segments_mutex_);
  return sealed_segments_;
}

void LogWriter::Lead(std::unique_lock<std::mutex>* lock) {
  cv_.wait(*lock, [this] { return !leader_; });
  leader_ = true;
}

void LogWriter::StepDown() {
  leader_ = false;
  cv_.notify_all();
}

void LogWriter::CommitQueued(std::unique_lock<std::mutex>* lock) {
  if (queued_.empty() || !sticky_error_.ok()) return;
  const std::string group = std::exchange(queued_, {});
  const uint64_t max_sequence = std::exchange(queued_max_sequence_, 0);
  // Every record past durable_ is in this group: the previous leader
  // published its ticket, and the role admits one leader at a time.
  const uint64_t ticket = enqueued_;
  const uint64_t records = ticket - durable_;
  lock->unlock();
  const Status status = WriteGroup(group, records, max_sequence);
  lock->lock();
  if (status.ok()) {
    durable_ = ticket;
  } else {
    sticky_error_ = status;
  }
}

Status LogWriter::WriteGroup(std::string_view group,
                             [[maybe_unused]] uint64_t records,
                             uint64_t max_sequence) {
  Status status;
  if (segment_bytes_written_ > kSegmentMagic.size() &&
      segment_bytes_written_ + group.size() > options_.segment_bytes) {
    status = Rotate();
  }
  if (status.ok()) {
    status = WriteAllFd(fd_, group);
    util::CrashPoint("wal.writer.after_write");
  }
  if (status.ok() && ShouldSync()) {
    Timer fsync_timer;
    if (::fsync(fd_) != 0) {
      status = Status::Internal(std::string("segment fsync: ") +
                                std::strerror(errno));
    } else {
      CTDB_OBS_COUNT("wal.fsyncs", 1);
      CTDB_OBS_HIST("wal.fsync_us", fsync_timer.ElapsedMicros());
    }
    util::CrashPoint("wal.writer.after_fsync");
  }
  if (status.ok()) {
    segment_bytes_written_ += group.size();
    segment_max_sequence_ = std::max(segment_max_sequence_, max_sequence);
    bytes_since_checkpoint_.fetch_add(group.size(), std::memory_order_relaxed);
    CTDB_OBS_COUNT("wal.appends", records);
    CTDB_OBS_COUNT("wal.append_bytes", group.size());
    CTDB_OBS_COUNT("wal.groups", 1);
    CTDB_OBS_HIST("wal.group_records", records);
    CTDB_OBS_HIST("wal.group_bytes", group.size());
  }
  util::CrashPoint("wal.writer.before_ack");
  return status;
}

Status LogWriter::Rotate() {
  const uint64_t next = current_segment_index() + 1;
  CTDB_RETURN_NOT_OK(CloseSegmentFile());
  CTDB_RETURN_NOT_OK(OpenSegment(next));
  CTDB_OBS_COUNT("wal.rotations", 1);
  return Status::OK();
}

Status LogWriter::OpenSegment(uint64_t index) {
  const std::string path = dir_ + "/" + SegmentFileName(index);
  // O_EXCL: segment indices are never reused (recovery hands out max+1), so
  // an existing file means a bookkeeping bug — refuse to clobber data.
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Internal("open segment " + path + ": " +
                            std::strerror(errno));
  }
  const Status magic = WriteAllFd(fd_, kSegmentMagic);
  if (!magic.ok()) {
    ::close(fd_);
    fd_ = -1;
    return magic;
  }
  if (ShouldSync()) {
    // Make the file name durable; the magic itself rides the first group's
    // fsync (an un-synced magic parses as an empty torn tail — harmless).
    CTDB_RETURN_NOT_OK(util::SyncDir(dir_));
  }
  segment_bytes_written_ = kSegmentMagic.size();
  segment_max_sequence_ = 0;
  current_segment_index_.store(index, std::memory_order_relaxed);
  util::CrashPoint("wal.segment.after_open");
  return Status::OK();
}

Status LogWriter::CloseSegmentFile() {
  if (fd_ < 0) return Status::OK();
  Status status;
  if (ShouldSync() && ::fsync(fd_) != 0) {
    status = Status::Internal(std::string("segment fsync on close: ") +
                              std::strerror(errno));
  }
  if (::close(fd_) != 0 && status.ok()) {
    status = Status::Internal(std::string("segment close: ") +
                              std::strerror(errno));
  }
  fd_ = -1;
  std::lock_guard<std::mutex> lock(segments_mutex_);
  sealed_segments_.push_back(SegmentInfo{current_segment_index(),
                                         segment_max_sequence_,
                                         segment_bytes_written_});
  return status;
}

}  // namespace ctdb::wal

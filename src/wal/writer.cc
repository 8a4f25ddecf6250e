#include "wal/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
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
  writer->thread_ = std::thread([w = writer.get()] { w->WriterLoop(); });
  return writer;
}

LogWriter::~LogWriter() { Close(); }

std::future<Status> LogWriter::AppendAsync(const Record& record) {
  std::promise<Status> promise;
  std::future<Status> future = promise.get_future();
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (closed_ || stop_) {
    promise.set_value(Status::Unavailable("log writer is closed"));
    return future;
  }
  if (!sticky_error_.ok()) {
    promise.set_value(sticky_error_);
    return future;
  }
  Pending pending;
  pending.frame = EncodeFrame(record);
  // Every mutating type advances the segment's sequence watermark;
  // kCheckpoint records are bookkeeping and never pin a segment.
  pending.sequence = IsMutationType(record.type) ? record.sequence : 0;
  pending.done = std::move(promise);
  queue_.push_back(std::move(pending));
  queue_cv_.notify_all();
  return future;
}

Status LogWriter::Append(const Record& record) {
  Timer wait;
  std::future<Status> future = AppendAsync(record);
  const Status status = future.get();
  CTDB_OBS_HIST("wal.commit_wait_us", wait.ElapsedMicros());
  return status;
}

Status LogWriter::RotateSegment() {
  std::future<Status> future;
  {
    std::promise<Status> promise;
    future = promise.get_future();
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (closed_ || stop_) {
      return Status::Unavailable("log writer is closed");
    }
    if (!sticky_error_.ok()) return sticky_error_;
    Pending pending;
    pending.rotate = true;
    pending.done = std::move(promise);
    queue_.push_back(std::move(pending));
    queue_cv_.notify_all();
  }
  return future.get();
}

Status LogWriter::Close() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (closed_) return sticky_error_;
    closed_ = true;
    stop_ = true;
    queue_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  const Status close_status = CloseSegmentFile();
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (sticky_error_.ok() && !close_status.ok()) sticky_error_ = close_status;
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

void LogWriter::WriterLoop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    if (queue_.empty()) {
      if (stop_) break;
      queue_cv_.wait(lock);
      continue;
    }
    // Group-commit window: keep collecting while callers pile on. Under
    // kAlways (or a zero window) whatever is queued right now forms the
    // group — concurrent appends still batch, they just never wait.
    if (options_.fsync_policy == FsyncPolicy::kGroup && !stop_ &&
        options_.group_commit_window.count() > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + options_.group_commit_window;
      while (!stop_ && std::chrono::steady_clock::now() < deadline) {
        queue_cv_.wait_until(lock, deadline);
      }
    }
    std::vector<Pending> batch = std::move(queue_);
    queue_.clear();
    lock.unlock();

    // Rotate requests split the batch into groups committed around them.
    size_t group_start = 0;
    for (size_t i = 0; i <= batch.size(); ++i) {
      const bool is_rotate = i < batch.size() && batch[i].rotate;
      if (i != batch.size() && !is_rotate) continue;
      CommitGroup(&batch, group_start, i);
      if (is_rotate) {
        Status status;
        {
          std::lock_guard<std::mutex> sticky_lock(queue_mutex_);
          status = sticky_error_;
        }
        if (status.ok()) status = RotateLocked();
        if (!status.ok()) {
          std::lock_guard<std::mutex> sticky_lock(queue_mutex_);
          if (sticky_error_.ok()) sticky_error_ = status;
        }
        batch[i].done.set_value(status);
      }
      group_start = i + 1;
    }
    lock.lock();
  }
}

void LogWriter::CommitGroup(std::vector<Pending>* batch, size_t first,
                            size_t last) {
  if (first == last) return;
  Status status;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    status = sticky_error_;
  }
  std::string buffer;
  uint64_t max_sequence = 0;
  for (size_t i = first; i < last; ++i) {
    buffer += (*batch)[i].frame;
    max_sequence = std::max(max_sequence, (*batch)[i].sequence);
  }
  if (status.ok() && segment_bytes_written_ > kSegmentMagic.size() &&
      segment_bytes_written_ + buffer.size() > options_.segment_bytes) {
    status = RotateLocked();
  }
  if (status.ok()) {
    status = WriteAllFd(fd_, buffer);
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
    segment_bytes_written_ += buffer.size();
    segment_max_sequence_ = std::max(segment_max_sequence_, max_sequence);
    bytes_since_checkpoint_.fetch_add(buffer.size(),
                                      std::memory_order_relaxed);
    CTDB_OBS_COUNT("wal.appends", last - first);
    CTDB_OBS_COUNT("wal.append_bytes", buffer.size());
    CTDB_OBS_COUNT("wal.groups", 1);
    CTDB_OBS_HIST("wal.group_records", last - first);
    CTDB_OBS_HIST("wal.group_bytes", buffer.size());
  } else {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (sticky_error_.ok()) sticky_error_ = status;
  }
  util::CrashPoint("wal.writer.before_ack");
  for (size_t i = first; i < last; ++i) {
    (*batch)[i].done.set_value(status);
  }
}

Status LogWriter::RotateLocked() {
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

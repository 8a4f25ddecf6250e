#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "obs/metrics.h"
#include "util/timer.h"

namespace ctdb::util {

/// Helpers hold a shared_ptr, so ParallelFor can return once every
/// iteration is done without waiting for helpers still queued.
struct ThreadPool::Loop {
  size_t begin = 0;
  size_t n = 0;
  const std::function<Status(size_t)>* body = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable all_done;
  Status first_error;

  /// Claims and runs iterations until none is left.
  void Run() {
    size_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
      if (!failed.load(std::memory_order_acquire)) {
        Status status;
        try {
          status = (*body)(begin + i);
        } catch (const std::exception& e) {
          status = Status::Internal(std::string("ParallelFor body threw: ") +
                                    e.what());
        } catch (...) {
          status = Status::Internal(
              "ParallelFor body threw a non-standard exception");
        }
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mutex);
          if (first_error.ok()) first_error = std::move(status);
          failed.store(true, std::memory_order_release);
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mutex);
        all_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(size_t threads) { Grow(std::max<size_t>(threads, 1)); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

size_t ThreadPool::Grow(size_t threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (workers_.size() < threads) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
  return workers_.size();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped, and nothing left to run
    const std::shared_ptr<Loop> loop = std::move(queue_.front());
    queue_.pop_front();
    CTDB_OBS_GAUGE_ADD("threadpool.queue_depth", -1);
    lock.unlock();
#if CTDB_OBS
    if (obs::Enabled()) {
      const Timer timer;
      loop->Run();
      CTDB_OBS_HIST("threadpool.task_latency_us",
                    static_cast<uint64_t>(timer.ElapsedMicros()));
    } else {
      loop->Run();
    }
#else
    loop->Run();
#endif
    lock.lock();
  }
}

Status ThreadPool::ParallelFor(size_t begin, size_t end,
                               const std::function<Status(size_t)>& body) {
  if (begin >= end) return Status::OK();
  auto loop = std::make_shared<Loop>();
  loop->begin = begin;
  loop->n = end - begin;
  loop->body = &body;

  size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    helpers = std::min(workers_.size(), loop->n - 1);
    queue_.insert(queue_.end(), helpers, loop);
    CTDB_OBS_GAUGE_ADD("threadpool.queue_depth", helpers);
  }
  CTDB_OBS_COUNT("threadpool.tasks_submitted", helpers);
  // One wake per helper: waking every idle worker at once measured slower
  // on the sharded router's scatter.
  for (size_t h = 0; h < helpers; ++h) wake_.notify_one();
  loop->Run();  // the caller participates — see header for why

  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->all_done.wait(lock, [&] {
    return loop->done.load(std::memory_order_acquire) == loop->n;
  });
  return loop->first_error;
}

}  // namespace ctdb::util

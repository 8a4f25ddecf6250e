// The executor behind every parallel phase.
//
// Each parallel phase is a loop of independent iterations: the
// per-candidate permission checks and the registration-time precompute
// that §7.4 calls "completely parallel", and the sharded router's one call
// per shard. So ParallelFor is the pool's only operation. A pool is created
// once (owned by the ContractDatabase, or by the router) and reused, so no
// call pays thread-startup latency.
//
// Scheduling model: the workers share one mutex-guarded queue. A
// ParallelFor over n iterations queues up to min(workers, n - 1) helper
// tasks, and the calling thread and every helper claim iterations from one
// shared atomic counter until none is left. Because the caller claims
// iterations too, a ParallelFor called from inside a body (nested) always
// finishes, even on a 1-worker pool whose one worker is the caller itself.
// The call returns once every iteration is done; a helper dequeued later
// finds nothing left to claim and returns at once.
//
// Errors: the first non-OK Status returned by a body, or the first
// exception it throws (converted to Status::Internal), is the call's
// result, and iterations not yet claimed are skipped.
//
// Growth: Grow starts more workers in place. The pool never shrinks and is
// never replaced, so a pointer to it stays valid; a pool with fewer workers
// than a loop has iterations only loses parallelism, never work.
//
// Thread-safety: ParallelFor and Grow may be called concurrently from any
// thread, including from inside a body.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace ctdb::util {

/// \brief A growable set of workers sharing one queue (see header).
class ThreadPool {
 public:
  /// Starts `threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t threads);

  /// Runs the helpers still queued (each finds its loop finished), then
  /// joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Currently running workers.
  size_t thread_count() const;

  /// Grows to at least `threads` workers in place; never shrinks. Returns
  /// the worker count after growing.
  size_t Grow(size_t threads);

  /// Runs `body(i)` for i in [begin, end) on the workers and the calling
  /// thread; returns once every iteration completed (or was skipped after
  /// the first error). Returns the first error Status; exceptions thrown
  /// by `body` are captured as Status::Internal.
  Status ParallelFor(size_t begin, size_t end,
                     const std::function<Status(size_t)>& body);

 private:
  struct Loop;  ///< one ParallelFor's shared iteration state

  void WorkerLoop();

  mutable std::mutex mutex_;  ///< guards everything below
  std::condition_variable wake_;
  /// One entry per queued helper; a Loop appears once per helper it asked
  /// for.
  std::deque<std::shared_ptr<Loop>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `body(i)` for every i in [0, n): on `pool` when there is one and
/// n > 1 (ThreadPool::ParallelFor), else inline on the calling thread in
/// index order, stopping at the first error, which it returns. Inline, an
/// exception thrown by `body` propagates to the caller.
template <typename Body>
Status ParallelFor(ThreadPool* pool, size_t n, const Body& body) {
  if (pool != nullptr && n > 1) return pool->ParallelFor(0, n, body);
  for (size_t i = 0; i < n; ++i) CTDB_RETURN_NOT_OK(body(i));
  return Status::OK();
}

}  // namespace ctdb::util

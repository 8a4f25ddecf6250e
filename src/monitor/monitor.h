// The stream registry: named StreamSessions over one broker's snapshots
// (DESIGN.md §15).
//
// StreamMonitor is the subsystem a broker embeds to serve
// StreamOpen/StreamAppend/StreamClose. It owns the name → session map under
// a small mutex held only for map lookups — appends run on the session's
// own lock, so streams make progress independently of each other and of the
// registry. Streams are ephemeral by design: they are monitoring state, not
// contract state, so they are not WAL-logged and do not survive a restart
// (a reconnecting client re-opens and replays from its own source).
//
// Observability: monitor.streams.opened / monitor.streams.closed /
// monitor.streams.open (gauge), monitor.events, monitor.verdicts (deltas
// emitted), monitor.stepped / monitor.pruned (contract×event step counters),
// monitor.builds (contract versions whose monitor an open built), the
// monitor.open span with a monitor.build child per such version, and the
// monitor.append span with per-batch timing.

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "monitor/session.h"
#include "monitor/types.h"
#include "util/result.h"

namespace ctdb::monitor {

/// \brief Name → open stream map. All members are safe to call
/// concurrently; per-stream appends serialize on the session.
class StreamMonitor {
 public:
  /// Opens stream `name` pinned to `snapshot` (see StreamSession::Open).
  /// AlreadyExists when a stream of that name is open.
  Result<StreamOpenInfo> Open(
      std::string name,
      std::shared_ptr<const broker::DatabaseSnapshot> snapshot,
      const StreamOptions& options = {});

  /// Appends events to stream `name`; NotFound when it is not open.
  Result<StreamAppendResult> Append(std::string_view name,
                                    const EventBatch& events);

  /// Closes stream `name`, returning its final summary; NotFound when it is
  /// not open.
  Result<StreamCloseInfo> Close(std::string_view name);

  /// Summary of an open stream without closing it (tests / tools).
  Result<StreamCloseInfo> Summary(std::string_view name) const;

  size_t open_streams() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return streams_.size();
  }

 private:
  std::shared_ptr<StreamSession> FindLocked(std::string_view name) const;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<StreamSession>, std::less<>> streams_;
};

}  // namespace ctdb::monitor

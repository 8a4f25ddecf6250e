// Crash-point test harness on top of util/crash_point.h.
//
// Production code calls `util::CrashPoint("site")` at the instants where a
// crash is interesting (after a write but before its fsync, after a rename
// but before the directory sync, ...). Tests drive those sites in two modes:
//
//  1. Record: `RecordCrashPoints(&sites)` collects every site hit during a
//     scenario, so a property test can enumerate the crash schedule it is
//     about to explore.
//  2. Kill: `ArmCrashPoint(site, n)` makes the n-th hit of `site` terminate
//     the process immediately with `_exit(kCrashExitCode)` — no destructors,
//     no buffer flushes, exactly like a kill -9 at that instant. Tests
//     `fork()` first and assert on the child's exit status.
//
// A third helper, HoldFirstWrite, pauses instead of killing: it holds the
// first thread to reach a named crash point (a WAL write, say) so a test
// can act while that operation is in flight.
//
// All three are process-global (the production hook is a single function
// pointer); tests using them must not run crash scenarios concurrently.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ctdb::testing {

/// Exit code of a process killed by an armed crash point; distinguishable
/// from asserts, signals and clean exits in the parent's waitpid status.
inline constexpr int kCrashExitCode = 42;

/// Installs a hook that appends every crash-point site name hit from now on
/// to `*sites` (thread-safe). `sites` must outlive the recording; stop with
/// StopCrashPoints().
void RecordCrashPoints(std::vector<std::string>* sites);

/// Installs a hook that calls `_exit(kCrashExitCode)` on the `hit`-th time
/// (1-based) the site named `site` is reached. An empty `site` matches every
/// site, so (``""``, k) kills at the k-th crash point hit overall.
void ArmCrashPoint(std::string site, uint64_t hit = 1);

/// Uninstalls any recording or armed hook.
void StopCrashPoints();

/// Holds the first thread to reach the crash point `site` (e.g.
/// wal.writer.after_write, just after a WAL write) until Release — so a
/// test can enqueue behind that write, show that other work goes on beside
/// it, or race it. The hold gives up after 10 s, so a test whose release
/// never comes fails instead of hanging. One at a time; installs the hook
/// for its lifetime.
class HoldFirstWrite {
 public:
  explicit HoldFirstWrite(std::string site);
  /// Releases any held write and uninstalls the hook.
  ~HoldFirstWrite();
  HoldFirstWrite(const HoldFirstWrite&) = delete;
  HoldFirstWrite& operator=(const HoldFirstWrite&) = delete;

  /// Waits, up to 10 s, until a write is held. False if none was.
  bool AwaitHeld();
  /// Lets the held write (and every later one) go on.
  void Release();
  /// True once the held write stopped waiting for Release on its own.
  bool gave_up() const;
};

}  // namespace ctdb::testing

#include "testing/crash.h"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string_view>

#include "util/crash_point.h"

namespace ctdb::testing {

namespace {

// The production hook is a bare function pointer, so the harness state is
// file-scope. A mutex serializes hits: sites fire from every committing
// thread that leads a WAL group and from the background checkpointer.
std::mutex g_mutex;
std::vector<std::string>* g_record = nullptr;
bool g_armed = false;
std::string g_armed_site;
uint64_t g_remaining = 0;

void Hook(const char* site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_record != nullptr) g_record->push_back(site);
  if (g_armed && (g_armed_site.empty() || g_armed_site == site)) {
    if (--g_remaining == 0) ::_exit(kCrashExitCode);
  }
}

// HoldFirstWrite's state, under its own mutex: a held write waits on
// g_hold_cv with g_hold_mutex released, so the test can still reach it.
constexpr auto kHoldLimit = std::chrono::seconds(10);
std::mutex g_hold_mutex;
std::condition_variable g_hold_cv;
bool g_held = false;
bool g_released = false;
bool g_gave_up = false;

void HoldHook(const char* site) {
  if (std::string_view(site) != "wal.writer.after_write") return;
  std::unique_lock<std::mutex> lock(g_hold_mutex);
  if (g_held) return;  // only the first write is held
  g_held = true;
  g_hold_cv.notify_all();
  g_gave_up =
      !g_hold_cv.wait_for(lock, kHoldLimit, [] { return g_released; });
}

}  // namespace

void RecordCrashPoints(std::vector<std::string>* sites) {
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_record = sites;
    g_armed = false;
  }
  util::SetCrashPointHook(&Hook);
}

void ArmCrashPoint(std::string site, uint64_t hit) {
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_record = nullptr;
    g_armed = true;
    g_armed_site = std::move(site);
    g_remaining = hit == 0 ? 1 : hit;
  }
  util::SetCrashPointHook(&Hook);
}

void StopCrashPoints() {
  util::SetCrashPointHook(nullptr);
  std::lock_guard<std::mutex> lock(g_mutex);
  g_record = nullptr;
  g_armed = false;
}

HoldFirstWrite::HoldFirstWrite() {
  {
    std::lock_guard<std::mutex> lock(g_hold_mutex);
    g_held = g_released = g_gave_up = false;
  }
  util::SetCrashPointHook(&HoldHook);
}

HoldFirstWrite::~HoldFirstWrite() {
  Release();
  util::SetCrashPointHook(nullptr);
}

bool HoldFirstWrite::AwaitHeld() {
  std::unique_lock<std::mutex> lock(g_hold_mutex);
  return g_hold_cv.wait_for(lock, kHoldLimit, [] { return g_held; });
}

void HoldFirstWrite::Release() {
  std::lock_guard<std::mutex> lock(g_hold_mutex);
  g_released = true;
  g_hold_cv.notify_all();
}

bool HoldFirstWrite::gave_up() const {
  std::lock_guard<std::mutex> lock(g_hold_mutex);
  return g_gave_up;
}

}  // namespace ctdb::testing

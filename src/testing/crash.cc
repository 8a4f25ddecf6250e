#include "testing/crash.h"

#include <unistd.h>

#include <mutex>

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

}  // namespace ctdb::testing

// ctdb_perfbench: the repository benchmark. One workload, one seed, one run:
//
//   ctdb_perfbench --workload query|stream|mixed-shard4 --seed N
//                  [--seconds S] [--trace 0|1] [--size full|smoke]
//                  [--work-dir DIR]
//
// Draws the workload's corpus (from its fixed corpus seed) and an op list
// (from --seed). Then, in each of three rounds, serves a fresh database
// in-process with net::Server, warms the hot query set, drives the op list
// through one net::Client connection and checks the answers. Prints a
// human-readable report followed by one JSON line:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (set-up medians over the rounds; latencies and
// throughput from each op's fastest round trip over the rounds); with
// --trace 1 the per-layer ones from an additional traced window. See
// NOTES.md.

#include <sys/personality.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "inputs.h"
#include "runner.h"
#include "util/string_util.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ctdb_perfbench --workload query|stream|mixed-shard4 "
               "--seed N [--seconds S] [--trace 0|1] [--size full|smoke] "
               "[--work-dir DIR]\n");
  return 2;
}

std::string JsonNumber(double v) {
  return ctdb::StringFormat("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  // Run with a fixed address-space layout. Pointer-hashed tables in the
  // library (hash-consed formulas) make a process's speed depend on where
  // its heap landed: with randomized layouts the same op list ran up to
  // 1.5x apart from one process to the next, against a few percent with
  // the layout fixed. personality() survives exec, so re-exec once.
  const int persona = personality(0xffffffff);
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 && len > 0 &&
      personality(persona | ADDR_NO_RANDOMIZE) != -1) {
    self[len] = '\0';
    execv(self, argv);  // returns only on failure: run as is
  }

  std::string workload;
  std::string size = "full";
  std::string work_dir = ".";
  uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 0);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--size") {
      size = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !have_seed || seconds <= 0) {
    return Usage();
  }

  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  auto spec = perfbench::FindWorkload(workload, size);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  auto inputs = perfbench::MakeInputs(*spec, seed, seconds);
  if (!inputs.ok()) {
    std::fprintf(stderr, "input generation: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  std::printf("workload %s seed %llu size %s: preload %zu, hot %zu, %zu "
              "ops, 1 connection, %s, fsync group; inputs drawn in %.3f s\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              size.c_str(), inputs->preload.size(), inputs->hot,
              inputs->ops.size(),
              spec->shards ? "ShardedDatabase x4" : "DurableDatabase",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count());

  const perfbench::Outcome out =
      perfbench::RunWorkload(*spec, *inputs, trace, work_dir);
  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  for (const std::string& e : out.errors) std::printf("error: %s\n", e.c_str());
  std::printf("ops %llu\nfailed_ops %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ctdb::StringFormat(", \"attempted\": %llu, \"failed\": %llu",
                             static_cast<unsigned long long>(out.attempted),
                             static_cast<unsigned long long>(out.failed));
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    json += ctdb::StringFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                               i ? ", " : "", m.name.c_str(),
                               JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}

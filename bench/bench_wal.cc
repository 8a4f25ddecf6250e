// Durability subsystem benchmark (DESIGN.md §10): what the write-ahead log
// costs on the write path and what it buys at recovery time.
//
// Phase 1 — append: registers the same contract workload through
// broker::DurableDatabase under each fsync policy (always / never),
// single-threaded and with 4 concurrent writers, reporting throughput and
// per-Register latency. Shape check: never (no fsync) bounds always from
// above, and always gains with concurrency because writers that arrive
// while an fsync is in flight share the next one (group commit).
//
// Phase 2 — recovery: builds logs of increasing length, then measures
// RecoverDatabase wall time, replayed records and scanned bytes. Recovery
// time should grow roughly linearly with log length, and a checkpoint should
// collapse it to near-constant (the replay tail is empty).
//
// Phase 3 — sharded recovery: registers the same total workload into a
// ShardedDatabase at 1/2/4/8 shards and times the full Open (manifest +
// parallel per-shard replay). Splitting one log N ways beats replaying it
// serially twice over: shards recover concurrently, and per-record replay
// cost grows with the size of the database it lands in, so N small replays
// are cheaper than one big one even on a single core.
//
// JSON mode: invoked with --benchmark_format=json (plus the usual
// --benchmark_repetitions=N / --benchmark_report_aggregates_only=true) the
// binary runs only Phase 3 and emits a google-benchmark-shaped JSON report
// (ShardedRecovery/shards:N entries, median aggregates, ns) so
// tools/perf/record_bench.py can record the recovery trajectory exactly
// like the gbench binaries.
//
// Metrics snapshot: the wal.* counters (appends, groups, fsyncs, recovery.*)
// land in BENCH_wal.metrics.json for the CI bench-smoke validation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "broker/durable.h"
#include "shard/sharded.h"
#include "testing/temp_dir.h"
#include "util/stats.h"
#include "wal/wal.h"

namespace {

using Clock = std::chrono::steady_clock;

struct AppendResult {
  double seconds = 0;
  size_t registered = 0;
  ctdb::RunningStats latency_us;
  double per_sec() const {
    return seconds > 0 ? static_cast<double>(registered) / seconds : 0;
  }
};

/// Registers `specs` (split evenly across `threads`) into a fresh durable
/// database under `policy` and reports wall time plus per-call latency.
AppendResult RunAppendPhase(const std::vector<std::string>& specs,
                            size_t threads, ctdb::wal::FsyncPolicy policy) {
  using namespace ctdb;
  testing::TempDir dir("bench_wal");
  wal::DurabilityOptions options;
  options.fsync_policy = policy;
  auto db = broker::DurableDatabase::Open(dir.path(), options);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }

  std::atomic<bool> failed{false};
  std::vector<RunningStats> latency(threads);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < specs.size(); i += threads) {
        const auto before = Clock::now();
        auto id = (*db)->Register(
            "wal-" + std::to_string(t) + "-" + std::to_string(i), specs[i]);
        if (!id.ok()) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        latency[t].Add(
            std::chrono::duration<double, std::micro>(Clock::now() - before)
                .count());
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const auto done = Clock::now();
  if (failed.load() || !(*db)->Close().ok()) {
    std::fprintf(stderr, "append phase failed (policy=%s)\n",
                 wal::FsyncPolicyName(policy));
    std::exit(1);
  }

  AppendResult result;
  result.seconds = std::chrono::duration<double>(done - start).count();
  result.registered = specs.size();
  for (const RunningStats& s : latency) result.latency_us.Merge(s);
  return result;
}

struct RecoveryResult {
  size_t contracts = 0;
  bool checkpointed = false;
  double build_seconds = 0;
  double recover_seconds = 0;
  ctdb::broker::RecoveryStats stats;
};

/// Builds a log with `count` registrations (fsync=never — the log content is
/// what matters, not the write path), optionally checkpoints, then times
/// RecoverDatabase over the resulting directory.
RecoveryResult RunRecoveryPhase(const std::vector<std::string>& specs,
                                size_t count, bool checkpoint) {
  using namespace ctdb;
  testing::TempDir dir("bench_wal_rec");
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;
  RecoveryResult result;
  result.contracts = count;
  result.checkpointed = checkpoint;
  {
    const auto start = Clock::now();
    auto db = broker::DurableDatabase::Open(dir.path(), options);
    if (!db.ok()) std::exit(1);
    for (size_t i = 0; i < count; ++i) {
      if (!(*db)->Register("rec-" + std::to_string(i),
                           specs[i % specs.size()])
               .ok()) {
        std::fprintf(stderr, "recovery-phase build failed at %zu\n", i);
        std::exit(1);
      }
    }
    if (checkpoint && !(*db)->Checkpoint().ok()) std::exit(1);
    if (!(*db)->Close().ok()) std::exit(1);
    result.build_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  const auto start = Clock::now();
  auto recovered = broker::RecoverDatabase(dir.path(), {}, &result.stats);
  result.recover_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!recovered.ok() || (*recovered)->size() != count) {
    std::fprintf(stderr, "recovery failed or lost records: %s\n",
                 recovered.status().ToString().c_str());
    std::exit(1);
  }
  return result;
}

/// Deliberately tiny formulas: Phase 3 measures the replay machinery (WAL
/// scan + re-register + snapshot publish), not LTL translation, so the
/// contract count can be large enough for sharding to matter.
const char* CheapLtl(size_t i) {
  switch (i % 3) {
    case 0: return "F pay";
    case 1: return "G(request -> F grant)";
    default: return "pay U deliver";
  }
}

struct ShardedRecoveryRow {
  size_t shards = 0;
  size_t contracts = 0;
  double build_seconds = 0;
  std::vector<double> recover_seconds;  ///< one sample per repetition
  double median_seconds() const {
    std::vector<double> sorted = recover_seconds;
    std::sort(sorted.begin(), sorted.end());
    return sorted.empty() ? 0 : sorted[sorted.size() / 2];
  }
};

/// Registers `count` cheap contracts into a fresh `shards`-way sharded
/// directory, closes it, then times ShardedDatabase::Open (adopting the
/// manifest) `reps` times over the same on-disk logs.
ShardedRecoveryRow RunShardedRecoveryPhase(size_t shards, size_t count,
                                           size_t reps) {
  using namespace ctdb;
  testing::TempDir dir("bench_wal_shard");
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;

  ShardedRecoveryRow row;
  row.shards = shards;
  row.contracts = count;
  {
    broker::DatabaseOptions db_options;
    db_options.shards = shards;
    const auto start = Clock::now();
    auto db = shard::ShardedDatabase::Open(dir.path(), options, db_options);
    if (!db.ok()) {
      std::fprintf(stderr, "sharded open failed: %s\n",
                   db.status().ToString().c_str());
      std::exit(1);
    }
    for (size_t i = 0; i < count; ++i) {
      if (!(*db)->Register("srec-" + std::to_string(i), CheapLtl(i)).ok()) {
        std::fprintf(stderr, "sharded build failed at %zu\n", i);
        std::exit(1);
      }
    }
    if (!(*db)->Close().ok()) std::exit(1);
    row.build_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
  }

  broker::DatabaseOptions adopt;
  adopt.shards = 0;  // topology comes from the manifest
  for (size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    auto db = shard::ShardedDatabase::Open(dir.path(), options, adopt);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (!db.ok() || (*db)->size() != count ||
        (*db)->shard_count() != shards) {
      std::fprintf(stderr, "sharded recovery failed or lost records: %s\n",
                   db.status().ToString().c_str());
      std::exit(1);
    }
    row.recover_seconds.push_back(seconds);
    if (!(*db)->Close().ok()) std::exit(1);
  }
  return row;
}

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

/// Emits a google-benchmark-shaped JSON report for the Phase 3 rows:
/// median aggregates named ShardedRecovery/shards:N when reps > 1, plain
/// per-run entries otherwise. Matches what record_bench.py expects from a
/// real gbench binary with --benchmark_report_aggregates_only=true.
void PrintJsonReport(const std::vector<ShardedRecoveryRow>& rows,
                     size_t reps, double scale) {
  std::printf("{\n");
  std::printf("  \"context\": {\"ctdb_bench\": \"wal\", \"scale\": %g},\n",
              scale);
  std::printf("  \"benchmarks\": [");
  bool first = true;
  for (const ShardedRecoveryRow& row : rows) {
    const double ns = row.median_seconds() * 1e9;
    if (!first) std::printf(",");
    first = false;
    if (reps > 1) {
      std::printf(
          "\n    {\"name\": \"ShardedRecovery/shards:%zu_median\", "
          "\"run_name\": \"ShardedRecovery/shards:%zu\", "
          "\"run_type\": \"aggregate\", \"aggregate_name\": \"median\", "
          "\"repetitions\": %zu, \"iterations\": 1, "
          "\"real_time\": %.1f, \"cpu_time\": %.1f, \"time_unit\": \"ns\"}",
          row.shards, row.shards, reps, ns, ns);
    } else {
      std::printf(
          "\n    {\"name\": \"ShardedRecovery/shards:%zu\", "
          "\"run_type\": \"iteration\", \"iterations\": 1, "
          "\"real_time\": %.1f, \"cpu_time\": %.1f, \"time_unit\": \"ns\"}",
          row.shards, ns, ns);
    }
  }
  std::printf("\n  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ctdb;
  const double scale = bench::Scale();
  const size_t append_contracts =
      std::max<size_t>(64, static_cast<size_t>(4000 * scale));
  // Cheap contracts replay fast, so the sharded phase can afford a count
  // where per-shard database size actually dominates recovery cost.
  const size_t sharded_contracts =
      std::max<size_t>(64, static_cast<size_t>(20000 * scale));

  // Accept the google-benchmark flags record_bench.py passes; anything else
  // gbench-shaped is ignored so the binary stays drop-in compatible.
  bool json_mode = false;
  size_t repetitions = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark_format=json") {
      json_mode = true;
    } else if (arg.rfind("--benchmark_repetitions=", 0) == 0) {
      repetitions = std::max<size_t>(
          1, std::strtoull(arg.c_str() + arg.find('=') + 1, nullptr, 10));
    }
  }

  if (json_mode) {
    std::vector<ShardedRecoveryRow> rows;
    for (size_t shards : kShardCounts) {
      rows.push_back(
          RunShardedRecoveryPhase(shards, sharded_contracts, repetitions));
    }
    PrintJsonReport(rows, repetitions, scale);
    bench::WriteMetricsSnapshot("wal");
    return 0;
  }

  bench::PrintHeader("WAL durability — append cost and recovery time (scale=" +
                     std::to_string(scale) + ")");

  // Pre-generate realistic contract texts against a throwaway universe so
  // the measured phases never touch the generator (same trick as
  // bench_concurrent_mixed).
  std::vector<std::string> specs;
  {
    bench::Universe proto = bench::BuildUniverse(
        std::max<size_t>(8, append_contracts / 8), /*contract_patterns=*/3,
        /*queries_per_level=*/1);
    bench::QuerySet set =
        bench::GenerateQueries(proto.db.get(), "wal", /*patterns=*/2,
                               append_contracts, 0xDB5A);
    specs = std::move(set.queries);
  }

  // --- Phase 1: append throughput / latency per fsync policy. -------------
  struct AppendRow {
    wal::FsyncPolicy policy;
    size_t threads;
    AppendResult result;
  };
  std::vector<AppendRow> rows;
  for (wal::FsyncPolicy policy :
       {wal::FsyncPolicy::kAlways, wal::FsyncPolicy::kNever}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      rows.push_back({policy, threads, RunAppendPhase(specs, threads, policy)});
    }
  }

  std::printf("%8s %8s | %10s %10s %12s | %12s %12s\n", "fsync", "threads",
              "records", "seconds", "reg/s", "lat_mean_us", "lat_max_us");
  bench::PrintRule();
  double always1 = 0, always4 = 0, never4 = 0;
  for (const AppendRow& row : rows) {
    if (row.policy == wal::FsyncPolicy::kAlways) {
      (row.threads == 1 ? always1 : always4) = row.result.per_sec();
    } else if (row.threads == 4) {
      never4 = row.result.per_sec();
    }
    std::printf("%8s %8zu | %10zu %10.3f %12.1f | %12.1f %12.1f\n",
                wal::FsyncPolicyName(row.policy), row.threads,
                row.result.registered, row.result.seconds,
                row.result.per_sec(), row.result.latency_us.mean(),
                row.result.latency_us.max());
  }
  bench::PrintRule();
  std::printf(
      "Shape check: reg/s never >= always at 4 threads >= always at 1 thread\n"
      "(writers arriving during an fsync share the next one).\n");
  if (!(never4 >= always4 && always4 >= always1)) {
    std::printf(
        "note: ordering not strict on this run (always/1=%.1f always/4=%.1f "
        "never/4=%.1f) — fsync cost is filesystem-bound and can vanish on "
        "fast/ephemeral storage.\n",
        always1, always4, never4);
  }

  // --- Phase 2: recovery time vs log length. ------------------------------
  std::printf("\n");
  std::printf("%9s %11s | %10s %10s %12s | %10s\n", "contracts", "checkpoint",
              "replayed", "bytes", "recover_ms", "build_s");
  bench::PrintRule();
  std::vector<RecoveryResult> recovery;
  for (size_t count :
       {append_contracts / 4, append_contracts / 2, append_contracts}) {
    recovery.push_back(RunRecoveryPhase(specs, std::max<size_t>(8, count),
                                        /*checkpoint=*/false));
  }
  recovery.push_back(
      RunRecoveryPhase(specs, append_contracts, /*checkpoint=*/true));
  for (const RecoveryResult& row : recovery) {
    std::printf("%9zu %11s | %10zu %10llu %12.2f | %10.3f\n", row.contracts,
                row.checkpointed ? "yes" : "no", row.stats.records_replayed,
                static_cast<unsigned long long>(row.stats.bytes_scanned),
                row.recover_seconds * 1e3, row.build_seconds);
  }
  bench::PrintRule();
  const RecoveryResult& full = recovery[recovery.size() - 2];
  const RecoveryResult& ckpt = recovery.back();
  std::printf(
      "Shape check: recovery scales with log length; the checkpointed run\n"
      "replays %zu records instead of %zu (checkpoint covers the log).\n",
      ckpt.stats.records_replayed, full.stats.records_replayed);
  if (ckpt.stats.records_replayed >= full.stats.records_replayed &&
      full.stats.records_replayed > 0) {
    std::printf("WARNING: checkpoint did not shorten replay.\n");
  }

  // --- Phase 3: sharded recovery vs shard count. --------------------------
  std::printf("\n");
  std::printf("%7s %10s | %12s %10s | %10s\n", "shards", "contracts",
              "recover_ms", "speedup", "build_s");
  bench::PrintRule();
  std::vector<ShardedRecoveryRow> sharded;
  for (size_t shards : kShardCounts) {
    sharded.push_back(
        RunShardedRecoveryPhase(shards, sharded_contracts, /*reps=*/1));
  }
  const double serial_ms = sharded.front().median_seconds() * 1e3;
  for (const ShardedRecoveryRow& row : sharded) {
    const double ms = row.median_seconds() * 1e3;
    std::printf("%7zu %10zu | %12.2f %9.2fx | %10.3f\n", row.shards,
                row.contracts, ms, ms > 0 ? serial_ms / ms : 0,
                row.build_seconds);
  }
  bench::PrintRule();
  std::printf(
      "Shape check: the same total log recovers faster split across shards\n"
      "(parallel replay, and per-record replay cost grows with shard size).\n"
      "At full scale (20k contracts) 4 shards should be >= 2x over 1 shard;\n"
      "at smoke scales fixed per-shard overheads can mask the effect.\n");

  bench::WriteMetricsSnapshot("wal");
  return 0;
}

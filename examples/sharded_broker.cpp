// Sharded broker: the durable database partitioned across four shards
// (DESIGN.md §13), driven through the same broker::Broker interface the
// network server speaks.
//
// Registers a handful of airline-style contracts, queries them through the
// scatter-gather router, then "restarts" by reopening the directory with
// shards=0 — the topology MANIFEST is adopted and every shard's log is
// replayed in parallel.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target sharded_broker
//   ./build/examples/sharded_broker

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "shard/sharded.h"
#include "wal/wal.h"

int main() {
  char dir[] = "/tmp/ctdb_sharded_XXXXXX";
  if (::mkdtemp(dir) == nullptr) return 1;

  ctdb::wal::DurabilityOptions durability;

  // --- Create a 4-shard topology and register through the router. ---------
  ctdb::broker::DatabaseOptions topology;
  topology.shards = 4;
  auto db = ctdb::shard::ShardedDatabase::Open(dir, durability, topology);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }

  const std::vector<std::pair<std::string, std::string>> contracts = {
      {"refundable", "G(purchase -> F (use | refund))"},
      {"no-refund-after-use", "G(use -> X !F refund)"},
      {"exchange-once", "G(exchange -> X !F exchange)"},
      {"upgrade-path", "G(purchase -> F (use | upgrade))"},
      {"strict-use", "F use"},
      {"grant-cycle", "G(request -> F grant)"},
  };
  for (const auto& [name, ltl] : contracts) {
    auto id = (*db)->Register(name, ltl);
    if (!id.ok()) {
      std::fprintf(stderr, "register %s: %s\n", name.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
    // Global ids are striped: shard(id) = id % 4 — dense across the router.
    std::printf("registered %-20s global id %2u  (shard %u)\n", name.c_str(),
                *id, *id % 4);
  }

  // One query fans out to every shard; matches come back merged ascending
  // by global id, stats summed/maxed so they read like one database.
  auto result = (*db)->Query("G(purchase -> F (use | refund | upgrade))");
  if (!result.ok()) return 1;
  std::printf("\nquery permitted by %zu of %zu contracts across %zu shards\n",
              result->matches.size(), (*db)->size(), (*db)->shard_count());

  if (!(*db)->Close().ok()) return 1;

  // --- "Restart": shards=0 adopts the MANIFEST, recovery is parallel. -----
  ctdb::broker::DatabaseOptions adopt;
  adopt.shards = 0;
  auto reopened = ctdb::shard::ShardedDatabase::Open(dir, durability, adopt);
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen: %s\n", reopened.status().ToString().c_str());
    return 1;
  }
  const auto& stats = (*reopened)->recovery_stats();
  std::printf(
      "recovered %zu contracts from %zu shards in %.2f ms "
      "(%.2f ms of replay done in parallel)\n",
      (*reopened)->size(), (*reopened)->shard_count(), stats.wall_ms,
      stats.replay_ms_sum);

  // A mismatched shard count is refused — resharding must be explicit.
  ctdb::broker::DatabaseOptions wrong;
  wrong.shards = 8;
  auto mismatch = ctdb::shard::ShardedDatabase::Open(dir, durability, wrong);
  std::printf("opening with --shards=8: %s\n",
              mismatch.status().ToString().c_str());

  return (*reopened)->Close().ok() ? 0 : 1;
}

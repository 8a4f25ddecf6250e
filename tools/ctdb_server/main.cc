// ctdb_server: the contract database as a long-running network service.
//
// Opens (or recovers) a broker::DurableDatabase in --dir — or, with
// --shards=N, a shard::ShardedDatabase partitioned across N durable shard
// directories (DESIGN.md §13) — and serves the wire protocol of
// net/protocol.h on --host:--port until SIGTERM/SIGINT,
// then drains gracefully: stop accepting, answer every request already
// read (each write commits its WAL group before its answer), close, and
// write the final metrics snapshot to --metrics-out.
//
//   ctdb_server --dir=/var/lib/ctdb --port=7421
//
// The bound address is printed as the first stdout line
// ("listening on <host>:<port>") so scripts can scrape an ephemeral port.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "broker/broker.h"
#include "broker/durable.h"
#include "net/server.h"
#include "shard/sharded.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/string_util.h"

namespace {

using ctdb::ParseUnsigned;

ctdb::net::Server* g_server = nullptr;

extern "C" void HandleShutdownSignal(int) {
  // RequestDrain is async-signal-safe: an atomic store + one write(2).
  if (g_server != nullptr) g_server->RequestDrain();
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dir=PATH [--host=127.0.0.1] [--port=0]\n"
      "          [--db-threads=1] [--max-pending=256]\n"
      "          [--max-connections=1024] [--fsync=always|never]\n"
      "          [--checkpoint-log-bytes=N] [--metrics-out=PATH]\n"
      "          [--shards=N]  (0 adopts the directory's manifest)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  ctdb::net::ServerOptions server_options;
  ctdb::wal::DurabilityOptions durability;
  ctdb::broker::DatabaseOptions db_options;
  std::string metrics_out;
  bool sharded = false;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--dir", &value)) {
      dir = value;
    } else if (ParseFlag(arg, "--host", &value)) {
      server_options.host = value;
    } else if (ParseFlag(arg, "--port", &value)) {
      if (!ParseUnsigned(value, &server_options.port)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--db-threads", &value)) {
      if (!ParseUnsigned(value, &db_options.threads)) return Usage(argv[0]);
    } else if (ParseFlag(arg, "--max-pending", &value)) {
      if (!ParseUnsigned(value, &server_options.max_pending)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "--max-connections", &value)) {
      if (!ParseUnsigned(value, &server_options.max_connections)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "--fsync", &value)) {
      if (value == "always") {
        durability.fsync_policy = ctdb::wal::FsyncPolicy::kAlways;
      } else if (value == "never") {
        durability.fsync_policy = ctdb::wal::FsyncPolicy::kNever;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "--checkpoint-log-bytes", &value)) {
      if (!ParseUnsigned(value, &durability.checkpoint_log_bytes)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "--shards", &value)) {
      if (!ParseUnsigned(value, &db_options.shards)) return Usage(argv[0]);
      sharded = true;
    } else if (ParseFlag(arg, "--metrics-out", &value)) {
      metrics_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (dir.empty()) return Usage(argv[0]);

  // A --shards flag (even --shards=1) selects the sharded topology; without
  // it the directory is a plain single-WAL DurableDatabase, as before.
  std::unique_ptr<ctdb::broker::Broker> db;
  if (sharded) {
    auto opened = ctdb::shard::ShardedDatabase::Open(dir, durability,
                                                     db_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "recovered %zu contracts from %zu shards in %s\n",
                 (*opened)->size(), (*opened)->shard_count(), dir.c_str());
    db = std::move(*opened);
  } else {
    auto opened = ctdb::broker::DurableDatabase::Open(dir, durability,
                                                      db_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "recovered %zu contracts from %s\n",
                 (*opened)->size(), dir.c_str());
    db = std::move(*opened);
  }

  auto server = ctdb::net::Server::Start(db.get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "start: %s\n", server.status().ToString().c_str());
    return 1;
  }
  g_server = server->get();

  struct sigaction action {};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::printf("listening on %s:%u\n", server_options.host.c_str(),
              (*server)->port());
  std::fflush(stdout);

  while (!(*server)->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "draining (%zu pending, %zu connections)\n",
               (*server)->pending_requests(), (*server)->connection_count());
  (*server)->Shutdown();
  g_server = nullptr;

  const ctdb::Status close_status = db->Close();
  if (!close_status.ok()) {
    std::fprintf(stderr, "close: %s\n", close_status.ToString().c_str());
  }

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << ctdb::obs::MetricsRegistry::Default()->Snapshot().ToJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "shut down cleanly with %zu contracts\n", db->size());
  return close_status.ok() ? 0 : 1;
}

// Network service benchmarks: full client → TCP → server → DurableDatabase
// round trips against an in-process server on the loopback interface, plus
// the layers underneath pulled apart — ExecuteRequest without the network,
// and the wire codec without the database — so a regression can be
// attributed to the protocol, the transport and its thread wakeups, or the
// query pipeline.
//
// Recorded into BENCH_server.json by tools/perf/record_bench.py and gated
// by compare_bench.py like the other pinned benches.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "broker/durable.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "testing/temp_dir.h"
#include "wal/wal.h"

namespace {

using namespace ctdb;
using net::Client;
using net::MsgKind;
using net::Request;
using net::Response;

constexpr size_t kContracts = 64;

std::string NthLtl(size_t i) {
  switch (i % 3) {
    case 0: return "F pay";
    case 1: return "G(request -> F grant)";
    default: return "pay U deliver";
  }
}

/// One database + server + contracts, shared by every benchmark in the
/// process (google-benchmark runs them sequentially).
struct Fixture {
  Fixture() : dir("bench_server") {
    wal::DurabilityOptions durability;
    durability.fsync_policy = wal::FsyncPolicy::kNever;
    auto opened = broker::DurableDatabase::Open(dir.path(), durability);
    if (!opened.ok()) std::abort();
    db = std::move(*opened);
    for (size_t i = 0; i < kContracts; ++i) {
      if (!db->Register("c" + std::to_string(i), NthLtl(i)).ok()) {
        std::abort();
      }
    }
    auto started = net::Server::Start(db.get());
    if (!started.ok()) std::abort();
    server = std::move(*started);
  }
  ~Fixture() {
    server->Shutdown().ok();
    db->Close().ok();
  }
  testing::TempDir dir;
  std::unique_ptr<broker::DurableDatabase> db;
  std::unique_ptr<net::Server> server;
};

Fixture* SharedFixture() {
  static Fixture* fixture = new Fixture();
  return fixture;
}

// Full round trip: encode, send, the connection's thread reading, running
// the query pipeline and sending the response, decode — one request at a
// time (latency-bound).
void BM_Server_QueryRoundTrip(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  auto client = Client::Connect("127.0.0.1", fixture->server->port());
  if (!client.ok()) { state.SkipWithError("connect failed"); return; }
  uint64_t id = 0;
  for (auto _ : state) {
    auto response = (*client)->Call(Request::Query(++id, "F pay"));
    if (!response.ok() || !response->status().ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(response->answers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Pipelined round trips: `depth` requests in flight per batch. The server
// runs a connection's requests one at a time in order, so this measures
// one connection's serial throughput with the client's sends and the
// server's reads and sends batched; it does not run the queries in
// parallel.
void BM_Server_PipelinedQueries(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  auto client = Client::Connect("127.0.0.1", fixture->server->port());
  if (!client.ok()) { state.SkipWithError("connect failed"); return; }
  const uint64_t depth = static_cast<uint64_t>(state.range(0));
  uint64_t id = 0;
  for (auto _ : state) {
    for (uint64_t i = 0; i < depth; ++i) {
      if (!(*client)->Send(Request::Query(++id, "F pay")).ok()) {
        state.SkipWithError("send failed");
        return;
      }
    }
    for (uint64_t i = 0; i < depth; ++i) {
      auto response = (*client)->Receive();
      if (!response.ok() || !response->status().ok()) {
        state.SkipWithError("receive failed");
        return;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(depth));
}

// Stats round trip: measures framing plus the metrics-registry JSON dump —
// the big-response path (several KiB per reply).
void BM_Server_StatsRoundTrip(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  auto client = Client::Connect("127.0.0.1", fixture->server->port());
  if (!client.ok()) { state.SkipWithError("connect failed"); return; }
  uint64_t id = 0;
  for (auto _ : state) {
    auto response = (*client)->Call(Request::Stats(++id));
    if (!response.ok() || !response->status().ok()) {
      state.SkipWithError("stats failed");
      return;
    }
    benchmark::DoNotOptimize(response->stats_json);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// The same query without any network: isolates the database side, so
// (BM_Server_QueryRoundTrip - this) is the transport cost.
void BM_Server_ExecuteRequestOnly(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  uint64_t id = 0;
  for (auto _ : state) {
    const Response response =
        net::ExecuteRequest(fixture->db.get(), Request::Query(++id, "F pay"));
    if (!response.status().ok()) {
      state.SkipWithError("execute failed");
      return;
    }
    benchmark::DoNotOptimize(response.answers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Codec only: request encode + frame scan + decode, no sockets at all.
void BM_Protocol_QueryEncodeDecode(benchmark::State& state) {
  for (auto _ : state) {
    const std::string frame =
        net::EncodeRequestFrame(Request::Query(7, "F (p1 & X p2)"));
    size_t offset = 0;
    Request decoded;
    if (!net::DecodeRequestFrame(frame, &offset, &decoded).ok()) {
      state.SkipWithError("decode failed");
      return;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_Protocol_ResponseEncodeDecode(benchmark::State& state) {
  Response response;
  response.id = 7;
  response.request_kind = MsgKind::kQuery;
  response.answers.push_back({{1, 2, 3, 5, 8, 13, 21, 34}, 1234, 64});
  for (auto _ : state) {
    const std::string payload = net::EncodeResponsePayload(response);
    Response decoded;
    if (!net::DecodeResponsePayload(payload, &decoded).ok()) {
      state.SkipWithError("decode failed");
      return;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK(BM_Server_QueryRoundTrip);
BENCHMARK(BM_Server_PipelinedQueries)->Arg(8)->Arg(64);
BENCHMARK(BM_Server_StatsRoundTrip);
BENCHMARK(BM_Server_ExecuteRequestOnly);
BENCHMARK(BM_Protocol_QueryEncodeDecode);
BENCHMARK(BM_Protocol_ResponseEncodeDecode);

}  // namespace

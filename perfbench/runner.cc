#include "runner.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "broker/database.h"
#include "broker/durable.h"
#include "checks.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/trace.h"
#include "shard/sharded.h"
#include "stats.h"
#include "testing/temp_dir.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

namespace broker = ctdb::broker;
namespace monitor = ctdb::monitor;
namespace net = ctdb::net;
namespace obs = ctdb::obs;
using Clock = std::chrono::steady_clock;
using ctdb::Result;
using ctdb::Status;
using ctdb::StringFormat;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Allocator bytes in use across all arenas (not RSS: worker threads
/// allocate from different arenas, which makes RSS noisy).
double HeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

Result<std::unique_ptr<broker::Broker>> OpenBroker(const WorkloadSpec& spec,
                                                   const std::string& dir) {
  const ctdb::wal::DurabilityOptions durability;  // fsync group, 200 µs
  broker::DatabaseOptions options;
  if (spec.shards > 0) {
    options.shards = spec.shards;
    CTDB_ASSIGN_OR_RETURN(
        auto db, ctdb::shard::ShardedDatabase::Open(dir, durability, options));
    return std::unique_ptr<broker::Broker>(std::move(db));
  }
  CTDB_ASSIGN_OR_RETURN(
      auto db, broker::DurableDatabase::Open(dir, durability, options));
  return std::unique_ptr<broker::Broker>(std::move(db));
}

/// A preloaded database, served over loopback when `server` is set.
struct Deployment {
  std::string dir;
  std::unique_ptr<broker::Broker> db;
  std::unique_ptr<net::Server> server;
  LiveSet preload;     ///< acknowledged preload: id → text
  uint64_t clock = 0;  ///< clock once the preload is acknowledged
  double setup_s = 0;
  double heap_mb = 0;
  /// Unserved deployments register one contract at a time and keep what
  /// each registration reported.
  std::vector<broker::RegistrationStats> registrations;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server) server->Shutdown();
    server.reset();
    if (db) db->Close();
    db.reset();
    if (!dir.empty()) ctdb::testing::RemoveTree(dir);
  }
};

/// Opens a fresh database in `dir` and registers the preload: through the
/// server in RegisterBatch requests of 16 when `serve`, else in-process one
/// Broker::Register at a time. setup_s runs from opening the directory
/// until the last registration is acknowledged.
Result<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                           const Inputs& in,
                                           const std::string& dir,
                                           bool serve) {
  ctdb::testing::RemoveTree(dir);
  auto dep = std::make_unique<Deployment>();
  dep->dir = dir;
  const double heap_before = HeapBytes();
  const auto start = Clock::now();
  CTDB_ASSIGN_OR_RETURN(dep->db, OpenBroker(spec, dir));
  std::unique_ptr<net::Client> client;
  if (serve) {
    CTDB_ASSIGN_OR_RETURN(dep->server, net::Server::Start(dep->db.get()));
    CTDB_ASSIGN_OR_RETURN(
        client, net::Client::Connect("127.0.0.1", dep->server->port()));
  }
  if (!serve) {
    for (size_t i = 0; i < in.preload.size(); ++i) {
      broker::RegistrationStats stats;
      CTDB_ASSIGN_OR_RETURN(
          const uint32_t id,
          dep->db->Register(StringFormat("pre-%zu", i), in.preload[i], &stats));
      dep->preload[id] = in.preload[i];
      dep->registrations.push_back(stats);
    }
  }
  uint64_t id = 0;
  for (size_t first = 0; serve && first < in.preload.size(); first += 16) {
    std::vector<net::Request::Entry> entries;
    for (size_t i = first; i < std::min(first + 16, in.preload.size()); ++i) {
      entries.push_back({StringFormat("pre-%zu", i), in.preload[i]});
    }
    const net::Request request = net::Request::RegisterBatch(++id, entries);
    CTDB_ASSIGN_OR_RETURN(const net::Response response, client->Call(request));
    CTDB_RETURN_NOT_OK(response.status());
    if (response.ids.size() != entries.size()) {
      return Status::Internal("preload batch acknowledged a wrong id count");
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      dep->preload[response.ids[i]] = entries[i].ltl;
    }
  }
  dep->setup_s = MicrosSince(start) / 1e6;
  dep->heap_mb = (HeapBytes() - heap_before) / (1024.0 * 1024.0);
  dep->clock = dep->db->last_sequence();
  return dep;
}

/// Queries every hot text, outside every timed span, as a long-running
/// server has: its translation and projection caches then hold the hot set.
/// Without this, whether a hot text's one uncached use fell on a single
/// query or a batch depended on the seed's op order, and moved both medians.
/// As-of queries check every visible contract, building each contract's
/// quotient for the query's events on first use, so where the op list has
/// them each hot text is also asked as of a clock before the preload's last
/// registration on every shard (a shard answers a clock at or past its own
/// latest as a latest query): that warms all contracts but one per shard.
Status WarmHotSet(const WorkloadSpec& spec, const Inputs& in,
                  const Deployment& dep) {
  std::vector<uint64_t> clocks = {0};
  const bool as_of = std::any_of(in.ops.begin(), in.ops.end(), [](const Op& op) {
    return op.kind == Kind::kAsOf;
  });
  const uint64_t back = std::max<uint64_t>(1, spec.shards);
  if (as_of && dep.clock > back) clocks.push_back(dep.clock - back);
  std::unique_ptr<net::Client> client;
  if (dep.server) {
    CTDB_ASSIGN_OR_RETURN(
        client, net::Client::Connect("127.0.0.1", dep.server->port()));
  }
  uint64_t id = 0;
  for (const uint64_t clock : clocks) {
    for (size_t t = 0; t < in.hot; ++t) {
      if (!client) {
        broker::QueryOptions options;
        options.as_of = clock;
        CTDB_RETURN_NOT_OK(dep.db->Query(in.queries[t], options).status());
        continue;
      }
      CTDB_ASSIGN_OR_RETURN(
          const net::Response r,
          client->Call(net::Request::Query(++id, in.queries[t], clock)));
      CTDB_RETURN_NOT_OK(r.status());
    }
  }
  return Status::OK();
}

Result<Registry> FetchRegistry(const Deployment& dep) {
  CTDB_ASSIGN_OR_RETURN(
      auto client, net::Client::Connect("127.0.0.1", dep.server->port()));
  CTDB_ASSIGN_OR_RETURN(net::Response response,
                        client->Call(net::Request::Stats(1)));
  CTDB_RETURN_NOT_OK(response.status());
  Registry registry;
  if (!ParseRegistry(response.stats_json, &registry)) {
    return Status::Corruption("kStats registry JSON does not parse");
  }
  return registry;
}

// ---------------------------------------------------------------------------
// Traced replay: a Broker decorator timing each call the benchmark's own
// net::ExecuteRequest makes into the replay database.

/// What the last Broker call on this thread took and reported.
struct CallRecord {
  double us = 0;
  std::vector<broker::QueryStats> queries;
  std::vector<broker::RegistrationStats> registrations;
};
thread_local CallRecord t_call;

/// Runs `call` inside a span named `name`, recording its duration.
template <typename F>
auto Timed(const char* name, F call) {
  t_call = {};
  obs::TraceSpan span(name);
  const auto start = Clock::now();
  auto result = call();
  t_call.us = MicrosSince(start);
  return result;
}

class TimedBroker final : public broker::Broker {
 public:
  explicit TimedBroker(broker::Broker* inner) : inner_(inner) {}

  Result<uint32_t> Register(std::string name, std::string_view ltl,
                            broker::RegistrationStats* stats) override {
    broker::RegistrationStats own;
    auto result = Timed("broker.register", [&] {
      return inner_->Register(std::move(name), ltl, stats ? stats : &own);
    });
    t_call.registrations.push_back(stats ? *stats : own);
    return result;
  }
  Result<std::vector<uint32_t>> RegisterBatch(
      const std::vector<broker::ContractDatabase::BatchEntry>& entries)
      override {
    return Timed("broker.register_batch",
                 [&] { return inner_->RegisterBatch(entries); });
  }
  Result<uint64_t> Unregister(uint32_t id) override {
    return Timed("broker.unregister", [&] { return inner_->Unregister(id); });
  }
  Result<uint64_t> Replace(uint32_t id, std::string_view ltl,
                           broker::RegistrationStats* stats) override {
    broker::RegistrationStats own;
    auto result = Timed("broker.replace", [&] {
      return inner_->Replace(id, ltl, stats ? stats : &own);
    });
    t_call.registrations.push_back(stats ? *stats : own);
    return result;
  }
  Result<broker::QueryResult> Query(
      std::string_view ltl, const broker::QueryOptions& options) const override {
    auto result =
        Timed("broker.query", [&] { return inner_->Query(ltl, options); });
    if (result.ok()) t_call.queries.push_back(result->stats);
    return result;
  }
  Result<std::vector<broker::QueryResult>> QueryBatch(
      const std::vector<std::string>& queries,
      const broker::QueryOptions& options) const override {
    auto result = Timed("broker.query_batch",
                        [&] { return inner_->QueryBatch(queries, options); });
    if (result.ok()) {
      for (const broker::QueryResult& r : *result) {
        t_call.queries.push_back(r.stats);
      }
    }
    return result;
  }
  Result<monitor::StreamOpenInfo> StreamOpen(
      std::string name, const monitor::StreamOptions& options) override {
    return Timed("broker.stream_open",
                 [&] { return inner_->StreamOpen(std::move(name), options); });
  }
  Result<monitor::StreamAppendResult> StreamAppend(
      std::string_view name, const monitor::EventBatch& events) override {
    return Timed("broker.stream_append",
                 [&] { return inner_->StreamAppend(name, events); });
  }
  Result<monitor::StreamCloseInfo> StreamClose(std::string_view name) override {
    return Timed("broker.stream_close",
                 [&] { return inner_->StreamClose(name); });
  }
  Status Checkpoint() override { return inner_->Checkpoint(); }
  Status Close() override { return inner_->Close(); }
  size_t size() const override { return inner_->size(); }
  uint64_t last_sequence() const override { return inner_->last_sequence(); }
  obs::MetricsSnapshot Metrics() const override { return inner_->Metrics(); }

 private:
  broker::Broker* inner_;
};

/// Where traced ops are replayed: never the served database, so no write is
/// applied twice.
struct Replay {
  TimedBroker* broker = nullptr;
  /// Mixed writes are also replayed here: the router-free, WAL-free
  /// baseline of shard.write_overhead_us.
  broker::ContractDatabase* memory = nullptr;
  /// Sharded replays also query each shard directly: the merge-free
  /// baseline of shard.merge_us.
  const ctdb::shard::ShardedDatabase* router = nullptr;
};

/// Measurements of one traced op beyond its round trip.
struct TracedOp {
  Kind kind = Kind::kQuery;
  double client_us = 0;
  double codec_us = 0;     ///< encode+decode of its request and response
  double execute_us = 0;   ///< net::ExecuteRequest on the replay database
  double broker_us = 0;    ///< the Broker call inside that ExecuteRequest
  double baseline_us = 0;  ///< mixed writes: in-memory ContractDatabase
  double slowest_shard_us = 0;  ///< sharded queries: slowest shard alone
  double server_us = 0;    ///< Answer::total_us for queries, else execute_us
  std::vector<broker::QueryStats> stats;
  std::vector<broker::RegistrationStats> registrations;
  uint64_t stepped = 0;
  uint32_t tracked = 0;
};

struct Owned {
  uint32_t id = 0;         ///< on the served database
  uint32_t replay_id = 0;  ///< on the replay database
  uint32_t memory_id = 0;  ///< on the in-memory baseline
  uint32_t text = 0;       ///< Inputs::writes index
};

/// The client connection: its state and everything it observed.
struct Conn {
  std::unique_ptr<net::Client> client;
  bool broken = false;
  uint64_t next_id = 0;
  uint64_t serial = 0;
  std::vector<Owned> owned;
  /// As-of queries ask as of the clock at which the preload was
  /// acknowledged (served, replay): the visible set is then the preload
  /// whatever the seed's op order.
  std::array<uint64_t, 2> as_of = {0, 0};

  std::array<std::vector<double>, kKinds> rtt;  ///< µs per op kind
  std::vector<double> op_us;  ///< µs per op of the op list, -1 if it failed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t registered = 0;
  uint64_t unregistered = 0;
  struct Answer {
    uint64_t op;  ///< the connection's op number
    uint32_t text;
    std::vector<uint32_t> matches;
  };
  std::vector<Answer> answers;
  uint64_t candidates = 0;
  uint64_t matches = 0;
  uint64_t fresh_slots = 0;
  uint64_t query_slots = 0;
  std::vector<StreamSegment> segments;
  /// Per stream, the index of its open segment.
  std::array<size_t, 2> open_segment = {0, 0};
  uint64_t instants = 0;
  uint64_t foreign_instants = 0;
  uint64_t stepped = 0;
  uint64_t pruned = 0;
  std::vector<std::string> errors;
  std::vector<TracedOp> traced;

  void Fail(Kind kind, const std::string& why) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(StringFormat("%s: %s", KindName(kind), why.c_str()));
    }
  }
};

net::Request BuildRequest(const Op& op, const Inputs& in, Conn* c,
                          uint64_t id, size_t owned) {
  const std::string stream = StringFormat("s%u", op.stream);
  switch (op.kind) {
    case Kind::kQuery:
      return net::Request::Query(id, in.queries[op.texts[0]]);
    case Kind::kBatch: {
      std::vector<std::string> texts;
      for (uint32_t t : op.texts) texts.push_back(in.queries[t]);
      return net::Request::QueryBatch(id, std::move(texts));
    }
    case Kind::kAsOf:
      return net::Request::Query(id, in.queries[op.texts[0]],
                                 c->as_of[0]);
    case Kind::kRegister:
      return net::Request::Register(
          id,
          StringFormat("c-%llu", static_cast<unsigned long long>(c->serial++)),
          in.writes[op.texts[0]]);
    case Kind::kReplace:
      return net::Request::Replace(id, c->owned[owned].id,
                                   in.writes[op.texts[0]]);
    case Kind::kUnregister:
      return net::Request::Unregister(id, c->owned[owned].id);
    case Kind::kOpen:
      return net::Request::StreamOpen(id, stream);
    case Kind::kAppend:
      return net::Request::StreamAppend(id, stream, op.events);
    case Kind::kClose:
      return net::Request::StreamClose(id, stream);
  }
  return {};
}

/// The benchmark's own codec work for one round trip: the client encodes
/// the request, the server decodes it, encodes the response, the client
/// decodes that.
double CodecMicros(const net::Request& request, const net::Response& response) {
  const auto start = Clock::now();
  const std::string req_frame = net::EncodeRequestFrame(request);
  size_t offset = 0;
  net::Request req_back;
  (void)net::DecodeRequestFrame(req_frame, &offset, &req_back);
  const std::string resp_frame = net::EncodeResponseFrame(response);
  offset = 0;
  net::Response resp_back;
  (void)net::DecodeResponseFrame(resp_frame, &offset, &resp_back);
  return MicrosSince(start);
}

/// Replays a traced op on the replay databases and records what it cost.
void ReplayOp(const Op& op, const net::Request& request,
              const net::Response& response, size_t owned,
              double client_us, const Replay& replay, Conn* c) {
  TracedOp t;
  t.kind = op.kind;
  t.client_us = client_us;
  {
    obs::TraceSpan span("net.codec");
    span.AddAttr("corr", request.id);
    t.codec_us = CodecMicros(request, response);
  }
  net::Request replayed = request;
  if (op.kind == Kind::kReplace || op.kind == Kind::kUnregister) {
    replayed.contract_id = c->owned[owned].replay_id;
  }
  if (op.kind == Kind::kAsOf) replayed.as_of = c->as_of[1];
  net::Response rr;
  {
    obs::TraceSpan span("net.execute");
    span.AddAttr("corr", request.id);
    const auto start = Clock::now();
    rr = net::ExecuteRequest(replay.broker, replayed);
    t.execute_us = MicrosSince(start);
  }
  t.broker_us = t_call.us;
  t.stats = std::move(t_call.queries);
  t.registrations = std::move(t_call.registrations);
  if (!rr.status().ok()) {
    c->Fail(op.kind, "replay: " + rr.status().ToString());
    return;
  }
  if (op.kind == Kind::kQuery && replay.router != nullptr) {
    obs::TraceSpan span("baseline.shards");
    span.AddAttr("corr", request.id);
    for (size_t k = 0; k < replay.router->shard_count(); ++k) {
      const auto start = Clock::now();
      (void)replay.router->shard(k).Query(request.ltl);
      t.slowest_shard_us = std::max(t.slowest_shard_us, MicrosSince(start));
    }
  }
  uint32_t memory_id = 0;
  if (IsWrite(op.kind) && replay.memory != nullptr) {
    obs::TraceSpan span("baseline.write");
    span.AddAttr("corr", request.id);
    const auto start = Clock::now();
    Status status;
    if (op.kind == Kind::kRegister) {
      auto r = replay.memory->Register(request.name, request.ltl);
      status = r.status();
      if (r.ok()) memory_id = *r;
    } else if (op.kind == Kind::kReplace) {
      status = replay.memory->Replace(c->owned[owned].memory_id, request.ltl)
                   .status();
    } else {
      status = replay.memory->Unregister(c->owned[owned].memory_id).status();
    }
    t.baseline_us = MicrosSince(start);
    if (!status.ok()) c->Fail(op.kind, "baseline: " + status.ToString());
  }
  t.server_us = (op.kind == Kind::kQuery || op.kind == Kind::kAsOf)
                    ? static_cast<double>(response.answers[0].total_us)
                    : t.execute_us;
  t.stepped = rr.stepped;
  t.tracked = rr.tracked;
  // Carry the replay's ids alongside the served ones.
  if (op.kind == Kind::kRegister) {
    c->owned.back().replay_id = rr.ids.empty() ? 0 : rr.ids[0];
    c->owned.back().memory_id = memory_id;
  }
  c->traced.push_back(std::move(t));
}

/// Issues one op through the client and books its outcome.
void ExecuteOp(const Op& op, const Inputs& in, Conn* c, const Replay* replay) {
  const uint64_t id = ++c->next_id;
  ++c->attempted;
  c->op_us.push_back(-1);
  size_t owned = 0;
  if (op.kind == Kind::kReplace || op.kind == Kind::kUnregister) {
    if (c->owned.empty()) {
      c->Fail(op.kind, "no contract of its own to target");
      return;
    }
    owned = op.pick % c->owned.size();
  }

  std::optional<obs::TraceSpan> op_span;
  if (replay != nullptr) {
    op_span.emplace("op");
    op_span->AddAttr("corr", id);
    op_span->AddAttr("kind", static_cast<uint64_t>(op.kind));
  }
  const net::Request request = BuildRequest(op, in, c, id, owned);
  Result<net::Response> result = Status::Internal("not sent");
  double us = 0;
  {
    std::optional<obs::TraceSpan> call_span;
    if (replay != nullptr) {
      call_span.emplace("net.call");
      call_span->AddAttr("corr", id);
    }
    const auto start = Clock::now();
    result = c->client->Call(request);
    us = MicrosSince(start);
  }
  if (!result.ok()) {
    c->broken = true;
    c->Fail(op.kind, "transport: " + result.status().ToString());
    return;
  }
  const net::Response& r = *result;
  if (r.code != ctdb::StatusCode::kOk) {
    c->Fail(op.kind, r.status().ToString());
    return;
  }
  if (r.id != id) {
    c->Fail(op.kind, "response answers another correlation id");
    return;
  }
  c->rtt[static_cast<size_t>(op.kind)].push_back(us);

  switch (op.kind) {
    case Kind::kQuery:
    case Kind::kBatch:
      if (r.answers.size() != op.texts.size()) {
        c->Fail(op.kind, "answer count differs from query count");
        return;
      }
      for (size_t i = 0; i < op.texts.size(); ++i) {
        c->answers.push_back({c->attempted, op.texts[i], r.answers[i].matches});
        const bool fresh = op.texts[i] >= in.hot;
        c->fresh_slots += fresh;
        ++c->query_slots;
        if (op.kind == Kind::kQuery) {
          c->candidates += r.answers[i].candidates;
          c->matches += r.answers[i].matches.size();
        }
      }
      break;
    case Kind::kAsOf:
      break;
    case Kind::kRegister:
      if (r.ids.size() != 1) {
        c->Fail(op.kind, "register acknowledged no id");
        return;
      }
      c->owned.push_back({r.ids[0], 0, 0, op.texts[0]});
      ++c->registered;
      break;
    case Kind::kReplace:
      c->owned[owned].text = op.texts[0];
      break;
    case Kind::kUnregister:
      ++c->unregistered;
      break;
    case Kind::kOpen:
      c->open_segment[op.stream] = c->segments.size();
      c->segments.push_back({r.sequence, {}, {}, false});
      break;
    case Kind::kAppend: {
      if (c->segments.empty()) break;
      StreamSegment& segment = c->segments[c->open_segment[op.stream]];
      segment.instants.insert(segment.instants.end(), op.events.begin(),
                              op.events.end());
      c->instants += op.events.size();
      if (op.foreign) c->foreign_instants += op.events.size();
      c->stepped += r.stepped;
      c->pruned += r.pruned;
      break;
    }
    case Kind::kClose:
      if (c->segments.empty()) break;
      c->segments[c->open_segment[op.stream]].verdicts = r.verdicts;
      c->segments[c->open_segment[op.stream]].closed = true;
      break;
  }
  c->op_us.back() = us;
  if (replay != nullptr) {
    ReplayOp(op, request, r, owned, us, *replay, c);
  }
  if (op.kind == Kind::kUnregister) {
    c->owned.erase(c->owned.begin() + static_cast<ptrdiff_t>(owned));
  }
}

struct Window {
  Conn conn;
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  const std::vector<double>& Rtt(Kind kind) const {
    return conn.rtt[static_cast<size_t>(kind)];
  }
};

/// Connects the client, then runs the op list closed-loop on this thread.
/// Only the op loop is timed.
Result<Window> RunWindow(const Inputs& in, const Deployment& dep,
                         uint64_t replay_clock, const Replay* replay) {
  Window w;
  Conn* c = &w.conn;
  CTDB_ASSIGN_OR_RETURN(c->client,
                        net::Client::Connect("127.0.0.1", dep.server->port()));
  c->as_of = {dep.clock, replay_clock};
  const auto start = Clock::now();
  for (const Op& op : in.ops) {
    if (c->broken) {
      ++c->attempted;
      ++c->failed;
      c->op_us.push_back(-1);
      continue;
    }
    ExecuteOp(op, in, c, replay);
  }
  w.seconds = MicrosSince(start) / 1e6;
  c->client->Close();
  return w;
}

// ---------------------------------------------------------------------------
// Output checks.

/// Threads for the reference checks (outside the timed window).
constexpr size_t kCheckThreads = 4;

/// The query texts whose answers are held to the reference: the hot set,
/// plus on `query` a seeded sample of 16 fresh texts.
std::vector<uint32_t> CheckedTexts(const WorkloadSpec& spec, const Inputs& in) {
  std::vector<uint32_t> fresh;
  if (spec.name == "query") {
    for (size_t t = in.hot; t < in.queries.size(); ++t) {
      fresh.push_back(static_cast<uint32_t>(t));
    }
    ctdb::Rng rng(in.seed);
    for (size_t i = fresh.size(); i > 1; --i) {
      std::swap(fresh[i - 1], fresh[rng.Uniform(i)]);
    }
    fresh.resize(std::min<size_t>(fresh.size(), 16));
  }
  std::vector<uint32_t> checked;
  for (size_t t = 0; t < in.hot; ++t) checked.push_back(static_cast<uint32_t>(t));
  checked.insert(checked.end(), fresh.begin(), fresh.end());
  return checked;
}

/// Every answer to a checked text against the reference; each op answering
/// a text wrongly fails.
void CheckQueryAnswers(const Inputs& in, const LiveSet& live,
                       const Reference& reference,
                       const std::vector<uint32_t>& checked, Window* w,
                       Outcome* out) {
  std::map<uint32_t, std::vector<uint32_t>> expected;
  for (uint32_t text : checked) {
    expected[text] = reference.Permitted(live, in.queries[text]);
  }
  std::set<uint64_t> wrong_ops;
  for (const Conn::Answer& a : w->conn.answers) {
    auto it = expected.find(a.text);
    if (it == expected.end() || a.matches == it->second) continue;
    wrong_ops.insert(a.op);
    if (out->errors.size() < 8) {
      out->errors.push_back(StringFormat(
          "query text %u answered %zu matches, reference %zu", a.text,
          a.matches.size(), it->second.size()));
    }
  }
  w->failed += wrong_ops.size();
}

void CheckStreams(Deployment* dep, Window* w, Outcome* out) {
  std::vector<const StreamSegment*> closed;
  for (const StreamSegment& s : w->conn.segments) {
    if (s.closed) closed.push_back(&s);
  }
  for (const std::string& diff :
       CheckStreams(dep->db.get(), closed, kCheckThreads)) {
    if (diff.empty()) continue;
    ++w->failed;
    if (out->errors.size() < 8) out->errors.push_back("stream: " + diff);
  }
}

/// Final live count and the hot texts' answers on the final state.
void CheckFinalState(const Inputs& in, Deployment* dep,
                     const Reference& reference, Window* w, Outcome* out) {
  LiveSet live = dep->preload;
  const uint64_t registered = w->conn.registered;
  const uint64_t unregistered = w->conn.unregistered;
  for (const Owned& o : w->conn.owned) live[o.id] = in.writes[o.text];
  const uint64_t expected = dep->preload.size() + registered - unregistered;
  if (dep->db->size() != expected || live.size() != expected) {
    out->correct = false;
    out->errors.push_back(StringFormat(
        "live count %zu, expected %llu (preload %zu + %llu registered - %llu "
        "unregistered)",
        dep->db->size(), static_cast<unsigned long long>(expected),
        dep->preload.size(), static_cast<unsigned long long>(registered),
        static_cast<unsigned long long>(unregistered)));
  }
  auto client = net::Client::Connect("127.0.0.1", dep->server->port());
  if (!client.ok()) {
    out->correct = false;
    out->errors.push_back("check connect: " + client.status().ToString());
    return;
  }
  for (uint32_t text = 0; text < in.hot; ++text) {
    auto r = (*client)->Call(net::Request::Query(text + 1, in.queries[text]));
    if (!r.ok() || !r->status().ok() || r->answers.size() != 1 ||
        r->answers[0].matches != reference.Permitted(live, in.queries[text])) {
      out->correct = false;
      out->errors.push_back(StringFormat(
          "hot text %u on the final state differs from the reference", text));
    }
  }
}

/// Books the window's failures and runs the workload's output checks.
void CheckWindow(const WorkloadSpec& spec, const Inputs& in, Deployment* dep,
                 const Reference* reference,
                 const std::vector<uint32_t>& checked, Window* w,
                 Outcome* out) {
  w->attempted += w->conn.attempted;
  w->failed += w->conn.failed;
  for (const std::string& e : w->conn.errors) out->errors.push_back(e);
  if (spec.name == "query") {
    CheckQueryAnswers(in, dep->preload, *reference, checked, w, out);
  }
  if (spec.name == "stream") CheckStreams(dep, w, out);
  if (spec.name == "mixed-shard4") CheckFinalState(in, dep, *reference, w, out);
  out->attempted += w->attempted;
  out->failed += w->failed;
  if (w->failed > 0) out->correct = false;
}

// ---------------------------------------------------------------------------
// Metrics.

/// The op kinds a workload reports latencies for: lead (p50 and tail),
/// second and third.
struct KindRoles {
  Kind lead;
  double tail_q;
  Kind second;
  Kind third;
};

KindRoles RolesOf(const WorkloadSpec& spec) {
  if (spec.name == "stream") return {Kind::kAppend, 0.90, Kind::kOpen, Kind::kClose};
  if (spec.name == "mixed-shard4") {
    return {Kind::kRegister, 0.99, Kind::kQuery, Kind::kAsOf};
  }
  return {Kind::kQuery, 0.99, Kind::kBatch, Kind::kQuery};
}

/// mixed-shard4's lead is every write kind.
bool IsLead(const WorkloadSpec& spec, Kind kind) {
  if (spec.name == "mixed-shard4") return IsWrite(kind);
  return kind == RolesOf(spec).lead;
}

/// Round trips of the lead kind(s).
std::vector<double> LeadRtt(const WorkloadSpec& spec, const Window& w) {
  std::vector<double> v;
  for (size_t k = 0; k < kKinds; ++k) {
    if (!IsLead(spec, static_cast<Kind>(k))) continue;
    v.insert(v.end(), w.conn.rtt[k].begin(), w.conn.rtt[k].end());
  }
  return v;
}

/// The named tail quantile, lowered where the sample is too small to have
/// ten samples beyond it.
double TailQuantile(double named, size_t samples) {
  if (samples == 0) return named;
  return std::max(0.5, std::min(named, 1.0 - 10.0 / static_cast<double>(samples)));
}

/// Per op of the op list, the fastest of its round trips over the rounds;
/// -1 where a round failed it. Every round runs the same op list on an
/// identical fresh deployment, so op i does the same work in each.
std::vector<double> BestOfRounds(const std::vector<Window>& rounds) {
  std::vector<double> best = rounds[0].conn.op_us;
  for (const Window& w : rounds) {
    for (size_t i = 0; i < best.size(); ++i) {
      const double us = i < w.conn.op_us.size() ? w.conn.op_us[i] : -1;
      best[i] = (us < 0 || best[i] < 0) ? -1 : std::min(best[i], us);
    }
  }
  return best;
}

/// End-to-end figures of one set of per-op round trips: `metrics` under the
/// BENCHMARK.json names, `named` under the names of what they measure (with
/// sample counts).
struct Figures {
  std::vector<Metric> metrics;
  std::vector<std::pair<Metric, size_t>> named;
};

/// `op_us[i]` is the round trip of op i of the op list, < 0 where it failed.
Figures FiguresOf(const WorkloadSpec& spec, const Inputs& in,
                  const std::vector<double>& op_us) {
  const KindRoles roles = RolesOf(spec);
  std::vector<double> lead;
  std::vector<double> second;
  std::vector<double> third;
  double total_us = 0;
  uint64_t ops = 0;
  uint64_t instants = 0;
  for (size_t i = 0; i < op_us.size(); ++i) {
    if (op_us[i] < 0) continue;
    const Op& op = in.ops[i];
    total_us += op_us[i];
    ++ops;
    instants += op.events.size();
    if (IsLead(spec, op.kind)) lead.push_back(op_us[i]);
    if (op.kind == roles.second) second.push_back(op_us[i]);
    // On `query` the third figure is single queries of fresh texts.
    if (op.kind == roles.third &&
        (spec.name != "query" || op.texts[0] >= in.hot)) {
      third.push_back(op_us[i]);
    }
  }
  const double seconds = total_us / 1e6;
  const double tail_q = TailQuantile(roles.tail_q, lead.size());
  // The tails are reported but not end-to-end metrics: each is set by the
  // cost of one or two ops, and the host varies one op's round trip by up
  // to 30%: over ten seeds they spread 0.19-0.29.
  Figures f;
  f.metrics = {
      {"ops_per_s", Ratio(static_cast<double>(ops), seconds), "1/s"},
      {"lead_p50_us", Median(lead), "us"},
      {"second_p50_us", Median(second), "us"},
      {"third_p50_us", Median(third), "us"},
  };
  auto named = [&f](const std::string& name, double value, const char* unit,
                    size_t samples) {
    f.named.push_back({{name, value, unit}, samples});
  };
  named("ops_per_s", f.metrics[0].value, "1/s", ops);
  const std::string tail = StringFormat("_p%g_us", 100 * tail_q);
  if (spec.name == "query") {
    named("query_p50_us", Median(lead), "us", lead.size());
    named("query" + tail, Quantile(lead, tail_q), "us", lead.size());
    named("batch_p50_us", Median(second), "us", second.size());
    named("fresh_p50_us", Median(third), "us", third.size());
  } else if (spec.name == "stream") {
    named("append_p50_us", Median(lead), "us", lead.size());
    named("append" + tail, Quantile(lead, tail_q), "us", lead.size());
    named("events_per_s", Ratio(static_cast<double>(instants), seconds),
          "1/s", instants);
    named("open_p50_us", Median(second), "us", second.size());
    named("close_p50_us", Median(third), "us", third.size());
  } else {
    const double q_tail = TailQuantile(0.99, second.size());
    named("query_p50_us", Median(second), "us", second.size());
    named(StringFormat("query_p%g_us", 100 * q_tail), Quantile(second, q_tail),
          "us", second.size());
    named("asof_p50_us", Median(third), "us", third.size());
    named("write_p50_us", Median(lead), "us", lead.size());
    named("write" + tail, Quantile(lead, tail_q), "us", lead.size());
  }
  return f;
}

/// The end-to-end metrics: set-up figures are medians over the rounds'
/// set-ups; the others come from the best of the rounds per op. Each is
/// printed with its value in every round.
void EndToEndMetrics(const WorkloadSpec& spec, const Inputs& in,
                     const std::vector<double>& setup_s,
                     const std::vector<double>& heap_mb,
                     const std::vector<Window>& rounds, Outcome* out) {
  auto values = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) s += StringFormat(" %.6g", x);
    return s;
  };
  auto line = [&](const Metric& m, const std::string& what,
                  const std::vector<double>& per_round) {
    out->report.push_back(StringFormat(
        "%-20s %14.3f %-4s (%s; rounds:%s)", m.name.c_str(), m.value,
        m.unit.c_str(), what.c_str(), values(per_round).c_str()));
  };
  out->metrics = {{"setup_s", Median(setup_s), "s"},
                  {"setup_heap_mb", Median(heap_mb), "MB"}};
  line(out->metrics[0], "median", setup_s);
  line(out->metrics[1], "median", heap_mb);
  const Figures best = FiguresOf(spec, in, BestOfRounds(rounds));
  std::vector<Figures> each;
  for (const Window& w : rounds) each.push_back(FiguresOf(spec, in, w.conn.op_us));
  out->metrics.insert(out->metrics.end(), best.metrics.begin(),
                      best.metrics.end());
  for (size_t m = 0; m < best.named.size(); ++m) {
    std::vector<double> v;
    for (const Figures& f : each) v.push_back(f.named[m].first.value);
    const auto& [metric, samples] = best.named[m];
    line(metric,
         StringFormat("best of %zu rounds per op, %zu samples", rounds.size(),
                      samples),
         v);
  }
}

/// Workload-record shares measured on the untraced window.
void RecordShares(const WorkloadSpec& spec, const Window& w,
                  const Registry& window_delta, Outcome* out) {
  const double hits = static_cast<double>(window_delta.Counter("translate_cache.hits"));
  const double misses =
      static_cast<double>(window_delta.Counter("translate_cache.misses"));
  if (spec.name == "query") {
    const double fresh =
        static_cast<double>(w.conn.fresh_slots);
    const double slots =
        static_cast<double>(w.conn.query_slots);
    out->report.push_back(StringFormat(
        "record: fresh-text share %.3f (%.0f of %.0f query texts)",
        Ratio(fresh, slots), fresh, slots));
  }
  if (spec.name != "stream") {
    out->report.push_back(StringFormat(
        "record: translation cache hit ratio %.3f (%.0f hits / %.0f lookups)",
        Ratio(hits, hits + misses), hits, hits + misses));
  }
  if (spec.name == "stream") {
    const double foreign = static_cast<double>(w.conn.foreign_instants);
    const double instants = static_cast<double>(w.conn.instants);
    const double stepped = static_cast<double>(w.conn.stepped);
    const double pruned = static_cast<double>(w.conn.pruned);
    out->report.push_back(StringFormat(
        "record: foreign-vocabulary share %.3f (%.0f of %.0f instants); "
        "prune ratio %.3f (%.0f pruned / %.0f steps)",
        Ratio(foreign, instants), foreign, instants,
        Ratio(pruned, stepped + pruned), pruned, stepped + pruned));
  }
  if (spec.name == "mixed-shard4") {
    const double writes = static_cast<double>(LeadRtt(spec, w).size());
    out->report.push_back(StringFormat(
        "record: write share %.3f (%.0f of %llu ops)",
        Ratio(writes, static_cast<double>(w.attempted)), writes,
        static_cast<unsigned long long>(w.attempted)));
  }
}

// ----- traced-run analysis --------------------------------------------------

/// The layer a span's self time belongs to.
const char* LayerOf(const std::string& span) {
  if (span == "net.call") return "client";
  if (span == "net.codec") return "net.codec";
  if (span == "net.execute") return "net.execute";
  if (span.rfind("baseline.", 0) == 0) return "baseline";
  if (span == "translate") return "translate";
  if (span == "query.prefilter" || span == "register.prefilter_insert") {
    return "index";
  }
  if (span == "query.permission" || span == "query_batch.permission") {
    return "core";
  }
  if (span == "register.projections") return "projection";
  if (span.rfind("monitor.", 0) == 0) return "monitor";
  return "broker";
}

constexpr const char* kLayers[] = {"net.codec", "net.execute", "broker",
                                   "translate", "index",       "core",
                                   "projection", "monitor"};

struct LayerTable {
  /// kind → layer → per-op self time (µs)
  std::map<Kind, std::map<std::string, std::vector<double>>> self;
  std::map<Kind, std::vector<double>> client;
};

LayerTable SelfTimes(const std::vector<obs::TraceEvent>& events) {
  std::map<uint64_t, std::vector<const obs::TraceEvent*>> children;
  for (const obs::TraceEvent& e : events) {
    if (e.parent_id != 0) children[e.parent_id].push_back(&e);
  }
  LayerTable table;
  for (const obs::TraceEvent& root : events) {
    if (root.name != "op" || root.parent_id != 0) continue;
    Kind kind = Kind::kQuery;
    for (const auto& [key, value] : root.attrs) {
      if (key == "kind") kind = static_cast<Kind>(value);
    }
    std::map<std::string, double> layer_us;
    for (const char* layer : kLayers) layer_us[layer] = 0;
    std::vector<const obs::TraceEvent*> stack = children[root.span_id];
    while (!stack.empty()) {
      const obs::TraceEvent* e = stack.back();
      stack.pop_back();
      const std::string layer = LayerOf(e->name);
      if (layer == "baseline") continue;  // a replay beside the op, not in it
      double self = static_cast<double>(e->duration_us);
      for (const obs::TraceEvent* child : children[e->span_id]) {
        self -= static_cast<double>(child->duration_us);
        stack.push_back(child);
      }
      if (layer == "client") {
        table.client[kind].push_back(static_cast<double>(e->duration_us));
      } else {
        layer_us[layer] += self;
      }
    }
    for (const auto& [layer, us] : layer_us) {
      table.self[kind][layer].push_back(us);
    }
  }
  return table;
}

/// Per-layer metrics of the traced window (replay- and span-based) plus
/// registry deltas of the untraced window (server only).
void LayerMetrics(const WorkloadSpec& spec, const Window& untraced,
                  const Window& traced, const Registry& setup_delta,
                  const Registry& window_delta,
                  const std::vector<broker::RegistrationStats>& preload,
                  const LayerTable& table, Outcome* out) {
  const bool sharded = spec.shards > 0;
  const std::vector<TracedOp>& ops = traced.conn.traced;
  auto collect = [&](auto pick, auto value) {
    std::vector<double> v;
    for (const TracedOp& t : ops) {
      if (pick(t)) v.push_back(value(t));
    }
    return v;
  };
  auto lead = [&](const TracedOp& t) { return IsLead(spec, t.kind); };
  auto single = [](const TracedOp& t) {
    return t.kind == Kind::kQuery && t.stats.size() == 1;
  };
  const std::vector<double> hop = collect(lead, [](const TracedOp& t) {
    return t.client_us - t.server_us;
  });
  const std::vector<double> codec =
      collect(lead, [](const TracedOp& t) { return t.codec_us; });
  const std::vector<double> execute =
      collect(lead, [](const TracedOp& t) { return t.execute_us; });
  const std::vector<double> client =
      collect(lead, [](const TracedOp& t) { return t.client_us; });
  auto stat_ms = [&](auto field) {
    return Median(collect(single, [&](const TracedOp& t) {
      return field(t.stats[0]) * 1000.0;
    }));
  };
  std::vector<double> merge;
  std::vector<double> write_overhead;
  std::vector<double> visible;
  std::vector<double> selectivity;
  double step_us = 0;
  double stepped = 0;
  std::vector<double> open_per_contract;
  for (const TracedOp& t : ops) {
    if (single(t)) {
      const broker::QueryStats& s = t.stats[0];
      merge.push_back(t.broker_us - t.slowest_shard_us);
      selectivity.push_back(100.0 * Ratio(static_cast<double>(s.candidates),
                                          static_cast<double>(s.database_size)));
    }
    if (t.kind == Kind::kAsOf && !t.stats.empty()) {
      visible.push_back(static_cast<double>(t.stats[0].database_size));
    }
    if (IsWrite(t.kind)) write_overhead.push_back(t.broker_us - t.baseline_us);
    if (t.kind == Kind::kAppend) {
      step_us += t.execute_us;
      stepped += static_cast<double>(t.stepped);
    }
    if (t.kind == Kind::kOpen && t.tracked > 0) {
      open_per_contract.push_back(t.execute_us / t.tracked);
    }
  }
  // Registrations of the window (mixed) or else of the set-up (preload).
  const bool window_writes = spec.name == "mixed-shard4";
  const Registry& reg = window_writes ? window_delta : setup_delta;
  std::vector<double> register_translate;
  std::vector<double> register_projection;
  auto add_registration = [&](const broker::RegistrationStats& r) {
    register_translate.push_back(r.translate_ms * 1000.0);
    register_projection.push_back(r.projection_precompute_ms * 1000.0);
  };
  if (window_writes) {
    for (const TracedOp& t : ops) {
      for (const auto& r : t.registrations) add_registration(r);
    }
  } else {
    for (const auto& r : preload) add_registration(r);
  }
  auto counter = [&](const Registry& r, const char* name) {
    return static_cast<double>(r.Counter(name));
  };
  double writes = 0;
  for (Kind k : {Kind::kRegister, Kind::kReplace, Kind::kUnregister}) {
    writes += static_cast<double>(untraced.Rtt(k).size());
  }
  const double hits = counter(window_delta, "translate_cache.hits");
  const double misses = counter(window_delta, "translate_cache.misses");
  const double q_hits = counter(window_delta, "projection.quotient_cache_hits");
  const double q_misses =
      counter(window_delta, "projection.quotient_cache_misses");
  const ctdb::obs::HistogramSnapshot distinct =
      reg.Histogram("projection.distinct_partitions_per_contract");
  const double subsets = counter(reg, "projection.subsets_computed");
  const double wire_candidates =
      static_cast<double>(untraced.conn.candidates);
  const double wire_matches =
      static_cast<double>(untraced.conn.matches);
  const double singles = static_cast<double>(untraced.Rtt(Kind::kQuery).size());
  const double u_stepped =
      static_cast<double>(untraced.conn.stepped);
  const double u_pruned =
      static_cast<double>(untraced.conn.pruned);
  const double checks = counter(window_delta, "permission.checks");
  const double pairs = counter(window_delta, "permission.pairs_visited");
  const double bytes = counter(window_delta, "net.bytes.in") +
                       counter(window_delta, "net.bytes.out");
  const std::vector<double> untraced_lead = LeadRtt(spec, untraced);
  const double overhead_pct =
      100.0 * (Ratio(Median(client), Median(untraced_lead)) - 1.0);

  out->metrics = {
      {"net.hop_us", Median(hop), "us"},
      {"net.codec_us", Median(codec), "us"},
      {"net.bytes_per_op", Ratio(bytes, static_cast<double>(untraced.attempted)),
       "B"},
      {"shard.merge_us", sharded ? Median(merge) : 0, "us"},
      {"shard.write_overhead_us", sharded ? Median(write_overhead) : 0, "us"},
      {"broker.execute_us", Median(execute), "us"},
      {"broker.asof_visible", Mean(visible), "count"},
      {"translate.query_us", stat_ms([](const broker::QueryStats& s) {
         return s.translate_ms;
       }), "us"},
      {"translate.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"translate.register_us", Mean(register_translate), "us"},
      {"index.prefilter_us", stat_ms([](const broker::QueryStats& s) {
         return s.prefilter_ms;
       }), "us"},
      {"index.candidates_per_query", Ratio(wire_candidates, singles), "count"},
      {"index.selectivity_pct", Mean(selectivity), "%"},
      {"index.condition_size",
       HistogramMean(window_delta.Histogram("prefilter.condition_size")),
       "count"},
      {"core.permission_us", stat_ms([](const broker::QueryStats& s) {
         return s.permission_ms;
       }), "us"},
      {"core.match_ratio", Ratio(wire_matches, wire_candidates), "ratio"},
      {"core.pairs_per_check", Ratio(pairs, checks), "count"},
      {"projection.precompute_us", Mean(register_projection), "us"},
      {"projection.quotient_hit_ratio", Ratio(q_hits, q_hits + q_misses),
       "ratio"},
      {"projection.distinct_ratio",
       Ratio(static_cast<double>(distinct.sum), subsets), "ratio"},
      {"wal.fsync_us",
       HistogramQuantile(window_delta.Histogram("wal.fsync_us"), 0.5), "us"},
      {"wal.records_per_group",
       Ratio(counter(window_delta, "wal.appends"),
             counter(window_delta, "wal.groups")),
       "count"},
      {"wal.fsyncs_per_write", Ratio(counter(window_delta, "wal.fsyncs"), writes),
       "count"},
      {"wal.bytes_per_write",
       Ratio(counter(window_delta, "wal.append_bytes"), writes), "B"},
      {"monitor.step_ns", Ratio(step_us * 1000.0, stepped), "ns"},
      {"monitor.prune_ratio", Ratio(u_pruned, u_stepped + u_pruned), "ratio"},
      {"monitor.open_us_per_contract", Median(open_per_contract), "us"},
      {"trace.unaccounted_us",
       Median(client) - Median(execute) - Median(codec), "us"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };

  // Bases of the ratios.
  out->report.push_back(StringFormat(
      "bases: translate cache %.0f hits / %.0f lookups; quotient cache %.0f "
      "hits / %.0f lookups; %.0f matches / %.0f candidates over %.0f single "
      "queries; %.0f pairs / %.0f checks; %.0f distinct partitions / %.0f "
      "subsets; %.0f pruned / %.0f steps; %.0f net bytes / %llu ops; %.0f "
      "writes",
      hits, hits + misses, q_hits, q_hits + q_misses, wire_matches,
      wire_candidates, singles, pairs, checks,
      static_cast<double>(distinct.sum), subsets, u_pruned,
      u_stepped + u_pruned, bytes,
      static_cast<unsigned long long>(untraced.attempted), writes));

  // Layer report: per op kind, median self time of each layer, the part of
  // the client median no layer accounts for, and the tracing overhead.
  std::string header = StringFormat("%-11s %6s %10s", "layers(us)", "ops", "client");
  for (const char* layer : kLayers) header += StringFormat(" %11s", layer);
  header += StringFormat(" %11s %10s %9s %10s", "unaccounted", "hop", "untraced",
                         "overhead%");
  out->report.push_back(header);
  for (const auto& [kind, client_us] : table.client) {
    const auto& layers = table.self.at(kind);
    std::string row = StringFormat("%-11s %6zu %10.1f", KindName(kind),
                                   client_us.size(), Median(client_us));
    for (const char* layer : kLayers) {
      auto it = layers.find(layer);
      row += StringFormat(" %11.1f",
                          it == layers.end() ? 0.0 : Median(it->second));
    }
    auto of_kind = [kind](const TracedOp& t) { return t.kind == kind; };
    const double exec = Median(collect(of_kind, [](const TracedOp& t) {
      return t.execute_us;
    }));
    const double cod =
        Median(collect(of_kind, [](const TracedOp& t) { return t.codec_us; }));
    const double hop_k = Median(collect(of_kind, [](const TracedOp& t) {
      return t.client_us - t.server_us;
    }));
    const double base = Median(untraced.Rtt(kind));
    const double traced_p50 = Median(client_us);
    row += StringFormat(" %11.1f %10.1f %9.1f %10.1f",
                        traced_p50 - exec - cod, hop_k, base,
                        100.0 * (Ratio(traced_p50, base) - 1.0));
    out->report.push_back(row);
  }
}

}  // namespace

Outcome RunWorkload(const WorkloadSpec& spec, const Inputs& in, bool trace,
                    const std::string& work_dir) {
  Outcome out;
  auto fail = [&out](const Status& status) {
    out.correct = false;
    out.errors.push_back(status.ToString());
    return out;
  };
  const std::string data = work_dir + "/data";

  // The reference answers, decided once per run outside every window.
  const std::vector<uint32_t> checked = CheckedTexts(spec, in);
  std::optional<Reference> reference;
  if (!checked.empty()) {
    std::vector<std::string> contracts = in.preload;
    contracts.insert(contracts.end(), in.writes.begin(), in.writes.end());
    std::vector<std::string> queries;
    for (uint32_t t : checked) queries.push_back(in.queries[t]);
    auto built = Reference::Build(contracts, queries, kCheckThreads);
    if (!built.ok()) return fail(built.status());
    reference = std::move(*built);
  }

  // Rounds of set-up and window, each on a fresh directory. A traced run
  // reports no end-to-end metric and does one round, as the untraced
  // baseline.
  std::vector<double> setup_s;
  std::vector<double> heap_mb;
  std::vector<Window> rounds;
  Registry before_setup;
  Registry after_setup;
  Registry window_delta;
  const size_t count = trace ? 1 : spec.rounds;
  for (size_t i = 0; i < count; ++i) {
    auto dep = Deploy(spec, in, data, /*serve=*/true);
    if (!dep.ok()) return fail(dep.status());
    setup_s.push_back((*dep)->setup_s);
    heap_mb.push_back((*dep)->heap_mb);
    const Status warm = WarmHotSet(spec, in, **dep);
    if (!warm.ok()) return fail(warm);
    auto reg = FetchRegistry(**dep);
    if (!reg.ok()) return fail(reg.status());
    after_setup = std::move(*reg);
    auto w = RunWindow(in, **dep, 0, nullptr);
    if (!w.ok()) return fail(w.status());
    reg = FetchRegistry(**dep);
    if (!reg.ok()) return fail(reg.status());
    window_delta = Delta(*reg, after_setup);
    const auto check_start = Clock::now();
    CheckWindow(spec, in, dep->get(), reference ? &*reference : nullptr,
                checked, &*w, &out);
    out.report.push_back(StringFormat(
        "round %zu: set-up %.3f s; %llu ops in %.3f s; checks %.3f s", i + 1,
        (*dep)->setup_s, static_cast<unsigned long long>(w->attempted),
        w->seconds, MicrosSince(check_start) / 1e6));
    rounds.push_back(std::move(*w));
    if (i + 1 < count) before_setup = std::move(*reg);
  }
  if (!checked.empty()) {
    out.report.push_back(StringFormat(
        "check: %zu query texts held to the reference in every round",
        checked.size()));
  }
  const Window& window = rounds.back();
  EndToEndMetrics(spec, in, setup_s, heap_mb, rounds, &out);
  RecordShares(spec, window, window_delta, &out);
  if (!trace) return out;

  // Traced window on fresh deployments: the served one, a replay database
  // of the same topology and, for mixed writes, an in-memory baseline.
  auto served = Deploy(spec, in, data, /*serve=*/true);
  if (!served.ok()) return fail(served.status());
  auto replay_dep = Deploy(spec, in, work_dir + "/replay", /*serve=*/false);
  if (!replay_dep.ok()) return fail(replay_dep.status());
  for (const Deployment* dep : {served->get(), replay_dep->get()}) {
    const Status warm = WarmHotSet(spec, in, *dep);
    if (!warm.ok()) return fail(warm);
  }
  TimedBroker timed((*replay_dep)->db.get());
  Replay replay{&timed, nullptr,
                dynamic_cast<const ctdb::shard::ShardedDatabase*>(
                    (*replay_dep)->db.get())};
  std::unique_ptr<broker::ContractDatabase> memory;
  if (spec.name == "mixed-shard4") {
    memory = std::make_unique<broker::ContractDatabase>();
    for (size_t i = 0; i < in.preload.size(); ++i) {
      auto r = memory->Register(StringFormat("pre-%zu", i), in.preload[i]);
      if (!r.ok()) return fail(r.status());
    }
    replay.memory = memory.get();
  }
  obs::VectorSink sink;
  obs::SetTraceSink(&sink);
  auto traced = RunWindow(in, **served, (*replay_dep)->clock, &replay);
  obs::SetTraceSink(nullptr);
  if (!traced.ok()) return fail(traced.status());
  CheckWindow(spec, in, served->get(), reference ? &*reference : nullptr,
              checked, &*traced, &out);

  const std::vector<obs::TraceEvent> events = sink.Events();
  const std::string trace_path = work_dir + "/trace-" + spec.name + ".jsonl";
  {
    std::ofstream file(trace_path);
    for (const obs::TraceEvent& e : events) {
      file << obs::FormatTraceEvent(e) << "\n";
    }
  }
  const std::vector<std::string> violations = obs::ValidateTrace(events);
  if (!violations.empty()) {
    out.correct = false;
    out.errors.push_back("trace: " + violations.front());
  }
  out.report.push_back(StringFormat(
      "trace: %zu spans written to %s, %zu violations", events.size(),
      trace_path.c_str(), violations.size()));
  LayerMetrics(spec, window, *traced, Delta(after_setup, before_setup),
               window_delta, (*replay_dep)->registrations, SelfTimes(events),
               &out);
  return out;
}

}  // namespace perfbench

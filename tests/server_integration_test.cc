// In-process integration tests for the network service (net/server.h):
// a real server on an ephemeral port over a real DurableDatabase, real
// sockets, concurrent mixed-operation clients, pipelining in order, one
// connection's slow request beside another's, graceful drain, and restart
// recovery — everything acked over the wire must be present after the
// server and database are reopened.

#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "broker/durable.h"
#include "shard/sharded.h"
#include "net/client.h"
#include "net/protocol.h"
#include "testing/crash.h"
#include "testing/temp_dir.h"
#include "wal/wal.h"

namespace ctdb::net {
namespace {

using ::ctdb::broker::DurableDatabase;
using ::ctdb::testing::TempDir;

wal::DurabilityOptions FastDurability() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;  // tests survive exit()
  return options;
}

std::string NthLtl(int i) {
  switch (i % 3) {
    case 0: return "F pay";
    case 1: return "G(request -> F grant)";
    default: return "pay U deliver";
  }
}

/// A database + server pair on an ephemeral port.
struct Harness {
  explicit Harness(const std::string& dir, ServerOptions options = {}) {
    auto opened = DurableDatabase::Open(dir, FastDurability());
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
    auto started = Server::Start(db.get(), options);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(*started);
  }
  ~Harness() {
    if (server != nullptr) {
      EXPECT_TRUE(server->Shutdown().ok());
    }
    if (db != nullptr) {
      EXPECT_TRUE(db->Close().ok());
    }
  }
  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }
  std::unique_ptr<DurableDatabase> db;
  std::unique_ptr<Server> server;
};

TEST(ServerIntegrationTest, AllSixOperationsRoundTrip) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto client = harness.Connect();

  auto reg = client->Call(Request::Register(1, "alpha", "F pay"));
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  ASSERT_TRUE(reg->status().ok()) << reg->message;
  EXPECT_EQ(reg->id, 1u);
  EXPECT_EQ(reg->request_kind, MsgKind::kRegister);
  ASSERT_EQ(reg->ids.size(), 1u);
  EXPECT_EQ(reg->ids[0], 0u);

  auto batch = client->Call(Request::RegisterBatch(
      2, {{"beta", "G(request -> F grant)"}, {"gamma", "pay U deliver"}}));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->status().ok()) << batch->message;
  EXPECT_EQ(batch->ids, (std::vector<uint32_t>{1, 2}));

  auto query = client->Call(Request::Query(3, "F pay"));
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query->status().ok()) << query->message;
  ASSERT_EQ(query->answers.size(), 1u);
  // "F pay" permits at least the identical contract "alpha".
  EXPECT_NE(std::find(query->answers[0].matches.begin(),
                      query->answers[0].matches.end(), 0u),
            query->answers[0].matches.end());

  auto query_batch =
      client->Call(Request::QueryBatch(4, {"F pay", "F deliver"}));
  ASSERT_TRUE(query_batch.ok());
  ASSERT_TRUE(query_batch->status().ok()) << query_batch->message;
  EXPECT_EQ(query_batch->answers.size(), 2u);

  auto checkpoint = client->Call(Request::Checkpoint(5));
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(checkpoint->status().ok()) << checkpoint->message;
  EXPECT_EQ(checkpoint->sequence, 3u);  // three registrations acked

  auto stats = client->Call(Request::Stats(6));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->status().ok()) << stats->message;
  // The registry holds counters only when observability is compiled in.
  if (CTDB_OBS) {
    EXPECT_NE(stats->stats_json.find("broker.registrations"),
              std::string::npos);
  }
}

TEST(ServerIntegrationTest, LifecycleOperationsAndTimeTravelRoundTrip) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto client = harness.Connect();

  ASSERT_TRUE(client->Call(Request::Register(1, "a", "F pay"))->status().ok());
  ASSERT_TRUE(client->Call(Request::Register(2, "b", "F pay"))->status().ok());

  auto gone = client->Call(Request::Unregister(3, 0));
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  ASSERT_TRUE(gone->status().ok()) << gone->message;
  EXPECT_EQ(gone->request_kind, MsgKind::kUnregister);
  EXPECT_EQ(gone->sequence, 3u);  // third mutation's clock

  auto swapped = client->Call(Request::Replace(4, 1, "G !pay"));
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  ASSERT_TRUE(swapped->status().ok()) << swapped->message;
  EXPECT_EQ(swapped->request_kind, MsgKind::kReplace);
  EXPECT_EQ(swapped->sequence, 4u);

  // Latest: "F pay" matches nothing; time travel to before the lifecycle
  // ops sees both originals.
  auto latest = client->Call(Request::Query(5, "F pay"));
  ASSERT_TRUE(latest.ok());
  ASSERT_TRUE(latest->status().ok()) << latest->message;
  EXPECT_TRUE(latest->answers[0].matches.empty());
  auto historic = client->Call(Request::Query(6, "F pay", /*as_of=*/2));
  ASSERT_TRUE(historic.ok());
  ASSERT_TRUE(historic->status().ok()) << historic->message;
  EXPECT_EQ(historic->answers[0].matches, (std::vector<uint32_t>{0, 1}));
  auto batch = client->Call(
      Request::QueryBatch(7, {"F pay", "G !pay"}, /*as_of=*/3));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->status().ok()) << batch->message;
  ASSERT_EQ(batch->answers.size(), 2u);
  EXPECT_EQ(batch->answers[0].matches, (std::vector<uint32_t>{1}));
  EXPECT_TRUE(batch->answers[1].matches.empty());

  // Lifecycle errors come back as responses, not hangups.
  auto dead = client->Call(Request::Unregister(8, 0));
  ASSERT_TRUE(dead.ok());
  EXPECT_TRUE(dead->status().IsNotFound());
  auto missing = client->Call(Request::Replace(9, 42, "F pay"));
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->status().IsNotFound());
}

TEST(ServerIntegrationTest, StreamOperationsRoundTrip) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto client = harness.Connect();

  ASSERT_TRUE(client->Call(Request::Register(1, "pay", "F paid"))
                  ->status().ok());
  ASSERT_TRUE(client->Call(Request::Register(2, "safe", "G !breach"))
                  ->status().ok());

  auto opened = client->Call(Request::StreamOpen(3, "orders"));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->status().ok()) << opened->message;
  EXPECT_EQ(opened->request_kind, MsgKind::kStreamOpen);
  EXPECT_EQ(opened->sequence, 2u);  // pinned at the second mutation's clock
  EXPECT_EQ(opened->tracked, 2u);

  // A duplicate open and appends to unknown streams come back as error
  // responses, not hangups.
  auto dup = client->Call(Request::StreamOpen(4, "orders"));
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->status().IsAlreadyExists());
  auto missing = client->Call(Request::StreamAppend(5, "ghost", {{"paid"}}));
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->status().IsNotFound());

  auto append = client->Call(
      Request::StreamAppend(6, "orders", {{"paid"}, {"breach"}}));
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  ASSERT_TRUE(append->status().ok()) << append->message;
  EXPECT_EQ(append->request_kind, MsgKind::kStreamAppend);
  EXPECT_EQ(append->events, 2u);
  EXPECT_GT(append->stepped, 0u);
  ASSERT_EQ(append->verdicts.size(), 2u);
  EXPECT_EQ(append->verdicts[0].contract_id, 0u);
  EXPECT_EQ(append->verdicts[0].verdict, monitor::StreamVerdict::kSatisfied);
  EXPECT_EQ(append->verdicts[1].contract_id, 1u);
  EXPECT_EQ(append->verdicts[1].verdict, monitor::StreamVerdict::kViolated);

  auto closed = client->Call(Request::StreamClose(7, "orders"));
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  ASSERT_TRUE(closed->status().ok()) << closed->message;
  EXPECT_EQ(closed->request_kind, MsgKind::kStreamClose);
  EXPECT_EQ(closed->events, 2u);
  EXPECT_EQ(closed->satisfied, 1u);
  EXPECT_EQ(closed->violated, 1u);
  EXPECT_EQ(closed->undetermined, 0u);
  EXPECT_EQ(closed->verdicts.size(), 2u);
  // Closed means closed: the name is gone, then free for reuse.
  EXPECT_TRUE(client->Call(Request::StreamClose(8, "orders"))
                  ->status().IsNotFound());
  EXPECT_TRUE(client->Call(Request::StreamOpen(9, "orders"))->status().ok());
}

TEST(ServerIntegrationTest, ShardedStreamOverTheWire) {
  TempDir dir("net");
  broker::DatabaseOptions topology;
  topology.shards = 2;
  auto sharded =
      shard::ShardedDatabase::Open(dir.path(), FastDurability(), topology);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto started = Server::Start(sharded->get());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto client = Client::Connect("127.0.0.1", (*started)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE((*client)
                    ->Call(Request::Register(static_cast<uint64_t>(c + 1),
                                             "c" + std::to_string(c),
                                             c % 2 ? "G !breach" : "F paid"))
                    ->status().ok());
  }
  auto opened = (*client)->Call(Request::StreamOpen(5, "s"));
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->status().ok()) << opened->message;
  EXPECT_EQ(opened->tracked, 4u);

  // One batch moves every contract; deltas arrive merged by global id.
  auto append = (*client)->Call(
      Request::StreamAppend(6, "s", {{"paid", "breach"}}));
  ASSERT_TRUE(append.ok());
  ASSERT_TRUE(append->status().ok()) << append->message;
  ASSERT_EQ(append->verdicts.size(), 4u);
  for (size_t i = 0; i < append->verdicts.size(); ++i) {
    EXPECT_EQ(append->verdicts[i].contract_id, i);
    EXPECT_EQ(append->verdicts[i].verdict,
              i % 2 ? monitor::StreamVerdict::kViolated
                    : monitor::StreamVerdict::kSatisfied);
  }

  auto closed = (*client)->Call(Request::StreamClose(7, "s"));
  ASSERT_TRUE(closed.ok());
  ASSERT_TRUE(closed->status().ok()) << closed->message;
  EXPECT_EQ(closed->satisfied, 2u);
  EXPECT_EQ(closed->violated, 2u);
  EXPECT_EQ(closed->verdicts.size(), 4u);

  EXPECT_TRUE((*started)->Shutdown().ok());
  EXPECT_TRUE((*sharded)->Close().ok());
}

TEST(ServerIntegrationTest, BadQueryComesBackAsErrorResponseNotHangup) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto client = harness.Connect();

  auto bad = client->Call(Request::Query(1, "F (("));
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad->status().ok());
  EXPECT_EQ(bad->id, 1u);

  // The connection survives an application-level error.
  auto good = client->Call(Request::Register(2, "a", "F pay"));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->status().ok()) << good->message;
}

TEST(ServerIntegrationTest, PipelinedRequestsAllAnsweredWithMatchingIds) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto client = harness.Connect();

  ASSERT_TRUE(
      client->Call(Request::Register(0, "seed", "F pay"))->status().ok());

  // A connection's requests run one at a time in arrival order, so every id
  // comes back exactly once, in send order.
  constexpr uint64_t kInFlight = 64;
  for (uint64_t id = 1; id <= kInFlight; ++id) {
    ASSERT_TRUE(client->Send(Request::Query(id, "F pay")).ok());
  }
  for (uint64_t id = 1; id <= kInFlight; ++id) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->status().ok()) << response->message;
    EXPECT_EQ(response->id, id);
  }
}

TEST(ServerIntegrationTest, RequestsOnOneConnectionRunInOrder) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto client = harness.Connect();
  ASSERT_TRUE(
      client->Call(Request::Register(1, "pay", "F paid"))->status().ok());

  // Pipelined without reading a byte, and each request needs the one before
  // it: the appends need the open, the close counts every append, and the
  // query cites an event that only the registration before it introduces,
  // so that contract is its one match.
  constexpr uint64_t kAppends = 32;
  std::vector<Request> requests;
  uint64_t id = 1;
  requests.push_back(Request::StreamOpen(++id, "orders"));
  for (uint64_t i = 0; i < kAppends; ++i) {
    requests.push_back(Request::StreamAppend(++id, "orders", {{"paid"}}));
  }
  requests.push_back(Request::StreamClose(++id, "orders"));
  requests.push_back(Request::Register(++id, "fresh", "F zeta"));
  requests.push_back(Request::Query(++id, "F zeta"));
  for (const Request& request : requests) {
    ASSERT_TRUE(client->Send(request).ok());
  }

  std::vector<Response> responses;
  for (const Request& request : requests) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->status().ok())
        << "request " << response->id << ": " << response->message;
    EXPECT_EQ(response->id, request.id) << "responses out of send order";
    responses.push_back(std::move(*response));
  }
  const Response& closed = responses[kAppends + 1];
  EXPECT_EQ(closed.request_kind, MsgKind::kStreamClose);
  EXPECT_EQ(closed.events, kAppends);
  const Response& registered = responses[kAppends + 2];
  ASSERT_EQ(registered.ids.size(), 1u);
  const Response& query = responses.back();
  ASSERT_EQ(query.answers.size(), 1u);
  EXPECT_EQ(query.answers[0].matches,
            std::vector<uint32_t>{registered.ids[0]});
}

TEST(ServerIntegrationTest, SlowRequestDoesNotHoldUpAnotherConnection) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto slow = harness.Connect();
  auto other = harness.Connect();

  // The slow connection's registration is held inside its WAL write; the
  // other connection must still be answered meanwhile.
  testing::HoldFirstWrite hold;
  ASSERT_TRUE(slow->Send(Request::Register(1, "held", "F pay")).ok());
  ASSERT_TRUE(hold.AwaitHeld());
  auto stats = other->Call(Request::Stats(2));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->status().ok()) << stats->message;
  EXPECT_FALSE(hold.gave_up())
      << "the other connection was answered only after the held write "
         "gave up";

  hold.Release();
  auto registered = slow->Receive();
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_TRUE(registered->status().ok()) << registered->message;
  EXPECT_EQ(registered->id, 1u);
}

TEST(ServerIntegrationTest, ConcurrentMixedClients) {
  TempDir dir("net");
  Harness harness(dir.path());

  // Prime the vocabulary so no query can race ahead of the registration
  // that would introduce its events.
  {
    auto prime = harness.Connect();
    auto response = prime->Call(
        Request::Register(0, "prime", "F (pay | request | grant | deliver)"));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->status().ok()) << response->message;
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 24;
  std::atomic<int> failures{0};
  std::atomic<int> ok_responses{0};
  std::atomic<int> acked_registers{0};

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto connected = Client::Connect("127.0.0.1", harness.server->port());
      if (!connected.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto& client = *connected;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const uint64_t id = static_cast<uint64_t>(c) * 1000 + i;
        Request request;
        switch (i % 4) {
          case 0:
            request = Request::Register(
                id, "c" + std::to_string(c) + "-" + std::to_string(i),
                NthLtl(i));
            break;
          case 1: request = Request::Query(id, "F pay"); break;
          case 2: request = Request::QueryBatch(id, {"F pay", "F grant"}); break;
          default: request = Request::Stats(id); break;
        }
        auto response = client->Call(request);
        if (!response.ok() || response->id != id) {
          failures.fetch_add(1);
          return;
        }
        // Admission control may shed under load; anything else must be OK.
        if (response->status().ok()) {
          ok_responses.fetch_add(1);
          if (i % 4 == 0) acked_registers.fetch_add(1);
        } else if (!response->status().IsUnavailable()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(ok_responses.load(), 0);
  // Every registration acked OK over the wire is in the database, and
  // nothing else is (names are unique, so no double counting; +1 for the
  // priming contract).
  EXPECT_EQ(harness.db->size(),
            static_cast<size_t>(acked_registers.load()) + 1);
}

TEST(ServerIntegrationTest, GracefulDrainAnswersEveryReceivedRequest) {
  TempDir dir("net");
  Harness harness(dir.path());
  auto client = harness.Connect();

  // Make sure the server has read and is executing real work, then drain.
  constexpr uint64_t kPipelined = 16;
  for (uint64_t id = 1; id <= kPipelined; ++id) {
    ASSERT_TRUE(
        client->Send(Request::Register(id, "d" + std::to_string(id),
                                       NthLtl(static_cast<int>(id))))
            .ok());
  }
  // First response proves the server has started consuming the pipeline.
  auto first = client->Receive();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->status().ok()) << first->message;

  harness.server->RequestDrain();

  // Every request the server had already read must still be answered
  // before the connection closes; the stream then ends cleanly. Responses
  // arrive in send order, each exactly once.
  std::set<uint64_t> answered = {first->id};
  uint64_t last = first->id;
  for (;;) {
    auto response = client->Receive();
    if (!response.ok()) break;  // server closed after answering
    EXPECT_TRUE(response->status().ok()) << response->message;
    EXPECT_EQ(response->id, last + 1);
    EXPECT_LE(response->id, kPipelined);
    EXPECT_TRUE(answered.insert(response->id).second)
        << "duplicate response id " << response->id;
    last = response->id;
  }
  EXPECT_GE(answered.size(), 1u);
  ASSERT_TRUE(harness.server->Shutdown().ok());

  // Acked-over-the-wire implies recoverable: every answered registration
  // survives a close + reopen.
  ASSERT_TRUE(harness.db->Close().ok());
  harness.db.reset();
  harness.server.reset();
  auto reopened = DurableDatabase::Open(dir.path(), FastDurability());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE((*reopened)->size(), answered.size());
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST(ServerIntegrationTest, RestartedServerRecoversContractSet) {
  TempDir dir("net");
  {
    Harness harness(dir.path());
    auto client = harness.Connect();
    for (uint64_t id = 0; id < 10; ++id) {
      auto response = client->Call(Request::Register(
          id, "r" + std::to_string(id), NthLtl(static_cast<int>(id))));
      ASSERT_TRUE(response.ok());
      ASSERT_TRUE(response->status().ok()) << response->message;
    }
    auto checkpoint = client->Call(Request::Checkpoint(99));
    ASSERT_TRUE(checkpoint.ok());
    ASSERT_TRUE(checkpoint->status().ok()) << checkpoint->message;
  }  // server shutdown + db close

  // A new server over the recovered database answers queries for the
  // contracts registered through the old one.
  Harness harness(dir.path());
  EXPECT_EQ(harness.db->size(), 10u);
  auto client = harness.Connect();
  auto query = client->Call(Request::Query(1, "F pay"));
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query->status().ok()) << query->message;
  ASSERT_EQ(query->answers.size(), 1u);
  EXPECT_FALSE(query->answers[0].matches.empty());
  auto stats = client->Call(Request::Stats(2));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->status().ok());
}

TEST(ServerIntegrationTest, ExecuteRequestMapsUnknownKindsToError) {
  TempDir dir("net");
  auto db = DurableDatabase::Open(dir.path(), FastDurability());
  ASSERT_TRUE(db.ok());
  Request request;
  request.kind = MsgKind::kResponse;  // not an operation
  request.id = 5;
  const Response response = ExecuteRequest(db->get(), request);
  EXPECT_FALSE(response.status().ok());
  EXPECT_EQ(response.id, 5u);
  ASSERT_TRUE((*db)->Close().ok());
}

}  // namespace
}  // namespace ctdb::net

// Torture tests for the network service's ugly paths (net/server.h):
// clients that disconnect mid-request, half-written frames, slow readers
// against a full send buffer, oversized / garbage / zero-length frames,
// admission-control overflow, and starts that fail. After every abuse the
// server must stay serviceable for well-behaved connections — that is the
// invariant each test ends on.

#include <gtest/gtest.h>
#include <sys/ioctl.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "broker/durable.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "testing/temp_dir.h"
#include "util/crc32c.h"
#include "wal/wal.h"

namespace ctdb::net {
namespace {

using ::ctdb::broker::DurableDatabase;
using ::ctdb::testing::TempDir;

wal::DurabilityOptions FastDurability() {
  wal::DurabilityOptions options;
  options.fsync_policy = wal::FsyncPolicy::kNever;
  return options;
}

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
  /// The end-of-test invariant: a fresh connection still gets service.
  void ExpectServiceable() {
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    auto response = client->Call(Request::Stats(999));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->status().ok()) << response->message;
  }
  std::unique_ptr<DurableDatabase> db;
  std::unique_ptr<Server> server;
};

/// Descriptors this process holds open.
size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(ServerTortureTest, FailedStartsLeakNoDescriptors) {
  TempDir dir("torture");
  Harness harness(dir.path());

  // Binding the port the running server holds fails after the listening
  // socket was made; so does an unparsable host. Neither may leak it.
  ServerOptions busy;
  busy.port = harness.server->port();
  ServerOptions unparsable;
  unparsable.host = "not-an-address";
  const size_t before = OpenFdCount();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(Server::Start(harness.db.get(), busy).ok());
  }
  EXPECT_FALSE(Server::Start(harness.db.get(), unparsable).ok());
  EXPECT_EQ(OpenFdCount(), before);
  harness.ExpectServiceable();
}

TEST(ServerTortureTest, ClientDisconnectsMidRequest) {
  TempDir dir("torture");
  Harness harness(dir.path());

  // Full request delivered, then a hard close before reading the response:
  // the server's write hits a dead socket and must just reap the
  // connection.
  for (int i = 0; i < 8; ++i) {
    auto client = harness.Connect();
    ASSERT_TRUE(client
                    ->Send(Request::Register(1, "gone-" + std::to_string(i),
                                             "F pay"))
                    .ok());
    client->Close();
  }
  harness.ExpectServiceable();
}

TEST(ServerTortureTest, HalfWrittenFrameThenClose) {
  TempDir dir("torture");
  Harness harness(dir.path());

  const std::string frame = EncodeRequestFrame(Request::Query(1, "F pay"));
  for (size_t cut : {size_t{1}, size_t{4}, kFrameHeaderBytes,
                     frame.size() - 1}) {
    // Hard close: the partial frame is simply dropped.
    auto hard = harness.Connect();
    ASSERT_TRUE(hard->SendBytes(frame.substr(0, cut)).ok());
    hard->Close();

    // Half close: the server sees EOF mid-frame, drops the partial frame,
    // answers nothing, and closes cleanly (no error frame, no hang).
    auto half = harness.Connect();
    ASSERT_TRUE(half->SendBytes(frame.substr(0, cut)).ok());
    half->CloseWrite();
    auto response = half->Receive();
    EXPECT_FALSE(response.ok());
    EXPECT_TRUE(response.status().IsUnavailable())
        << response.status().ToString();
  }
  harness.ExpectServiceable();
}

TEST(ServerTortureTest, GarbageFrameGetsErrorResponseThenClose) {
  TempDir dir("torture");
  Harness harness(dir.path());

  // A CRC mismatch is unrecoverable: one final error response (correlation
  // id 0), then the server closes the connection.
  std::string frame = EncodeRequestFrame(Request::Query(7, "F pay"));
  frame[kFrameHeaderBytes] ^= 0x40;
  auto client = harness.Connect();
  ASSERT_TRUE(client->SendBytes(frame).ok());
  auto response = client->Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->id, 0u);
  EXPECT_FALSE(response->status().ok());
  auto eof = client->Receive();
  EXPECT_TRUE(eof.status().IsUnavailable()) << eof.status().ToString();
  harness.ExpectServiceable();
}

TEST(ServerTortureTest, UndecodablePayloadGetsErrorResponseThenClose) {
  TempDir dir("torture");
  Harness harness(dir.path());

  // Valid frame (length + CRC check out) around a payload that is not a
  // request: kind byte 200.
  std::string payload = EncodeRequestPayload(Request::Checkpoint(3));
  payload[0] = static_cast<char>(200);
  // Re-frame by hand through the response-side encoder path is not
  // possible, so build the header directly against the public contract:
  // ScanFrame accepts it iff length and CRC match the payload.
  std::string frame;
  const auto put_u32 = [&frame](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_u32(static_cast<uint32_t>(payload.size()));
  put_u32(util::Crc32c(payload));
  frame += payload;
  {
    size_t offset = 0;
    std::string_view view;
    ASSERT_EQ(ScanFrame(frame, &offset, &view), FrameScan::kFrame);
  }

  auto client = harness.Connect();
  ASSERT_TRUE(client->SendBytes(frame).ok());
  auto response = client->Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->id, 0u);
  EXPECT_FALSE(response->status().ok());
  auto eof = client->Receive();
  EXPECT_TRUE(eof.status().IsUnavailable());
  harness.ExpectServiceable();
}

TEST(ServerTortureTest, OversizedAndZeroLengthFrames) {
  TempDir dir("torture");
  Harness harness(dir.path());

  // Length prefix past kMaxFrameBytes: rejected before any allocation,
  // error response, close — the server must not wait for 4 GiB to arrive.
  {
    auto client = harness.Connect();
    const std::string header = {'\xff', '\xff', '\xff', '\xff',
                                '\0',   '\0',   '\0',   '\0'};
    ASSERT_TRUE(client->SendBytes(header).ok());
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->status().ok());
    EXPECT_TRUE(client->Receive().status().IsUnavailable());
  }

  // Zero-length frame: structurally a frame, but an empty payload has no
  // kind byte — protocol error, same ending.
  {
    auto client = harness.Connect();
    const std::string frame(kFrameHeaderBytes, '\0');
    ASSERT_TRUE(client->SendBytes(frame).ok());
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->status().ok());
    EXPECT_TRUE(client->Receive().status().IsUnavailable());
  }
  harness.ExpectServiceable();
}

/// The server's state as a stalled connection sees it: bytes waiting unread
/// in the connection's socket, requests the server holds, and bytes it has
/// handed to the kernel (net.bytes.out; 0 without CTDB_OBS).
struct Stall {
  int unread = 0;
  size_t pending = 0;
  uint64_t bytes_out = 0;
  bool operator==(const Stall&) const = default;
};

/// Waits until bytes have reached `fd` and nothing has moved for 100 ms:
/// the server's sends to `fd` have stalled. Fails after 30 s.
Stall AwaitStall(const Server& server, int fd) {
  Stall last{-1, 0, 0};
  for (int polls = 0, still = 0; polls < 1500; ++polls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Stall now;
    EXPECT_EQ(ioctl(fd, FIONREAD, &now.unread), 0);
    now.pending = server.pending_requests();
    now.bytes_out =
        obs::MetricsRegistry::Default()->Snapshot().CounterValue(
            "net.bytes.out");
    still = (now.unread > 0 && now == last) ? still + 1 : 0;
    if (still == 5) return now;
    last = now;
  }
  ADD_FAILURE() << "the server's sends never stalled";
  return last;
}

TEST(ServerTortureTest, SlowReaderIsBackpressuredNotKilled) {
  TempDir dir("torture");
  // Pipeline more stats requests (~1.7 KB JSON responses each) than the
  // loopback socket buffers can hold the responses of (~4.2 MB with
  // Linux's default 4 MiB tcp_wmem ceiling), in one write, and read
  // nothing. max_pending admits the whole burst, so the responses, not
  // admission control, are what this exercises.
  constexpr uint64_t kRequests = 8192;
  ServerOptions options;
  options.max_pending = kRequests;
  Harness harness(dir.path(), options);

  auto seed = harness.Connect();
  ASSERT_TRUE(
      seed->Call(Request::Register(0, "seed", "F pay"))->status().ok());

  const uint64_t bytes_out_before =
      obs::MetricsRegistry::Default()->Snapshot().CounterValue(
          "net.bytes.out");
  auto slow = harness.Connect();
  std::string burst;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    burst += EncodeRequestFrame(Request::Stats(id));
  }
  ASSERT_TRUE(slow->SendBytes(burst).ok());

  // While the server cannot send to the slow reader, that connection holds
  // no admission slot, and other connections are served, not shed.
  const Stall stall = AwaitStall(*harness.server, slow->fd());
  EXPECT_EQ(stall.pending, 0u);
  for (int i = 0; i < 4; ++i) {
    auto other = harness.Connect();
    auto response = other->Call(Request::Stats(999));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->status().ok()) << response->message;
  }

  // Nothing is dropped: once the client reads, every response arrives
  // intact.
  std::set<uint64_t> seen;
  uint64_t response_bytes = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto response = slow->Receive();
    ASSERT_TRUE(response.ok()) << "after " << i << " responses: "
                               << response.status().ToString();
    EXPECT_TRUE(response->status().ok()) << response->message;
    EXPECT_TRUE(seen.insert(response->id).second);
    response_bytes += EncodeResponseFrame(*response).size();
  }
  EXPECT_EQ(seen.size(), kRequests);
  // And the stall was real: the server had handed the kernel less than
  // the responses' bytes when the sends stopped moving.
  if (CTDB_OBS && obs::Enabled()) {
    EXPECT_LT(stall.bytes_out - bytes_out_before, response_bytes);
  }
  harness.ExpectServiceable();
}

TEST(ServerTortureTest, QueueOverflowShedsWithUnavailable) {
  TempDir dir("torture");
  ServerOptions options;
  options.max_pending = 2;
  Harness harness(dir.path(), options);

  // Registrations translate their formula server-side, which takes real
  // work — pipelining many of them through a max_pending=2 server must trip
  // admission control. Shed requests get a Status::Unavailable *response*
  // (correlation id intact), never a hang or a dropped frame.
  constexpr uint64_t kRequests = 64;
  auto client = harness.Connect();
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(client
                    ->Send(Request::Register(
                        id, "burst-" + std::to_string(id),
                        "G(a0 -> ((!b0 U (c0 & !b0)) | G !b0))"))
                    .ok());
  }
  std::set<uint64_t> seen;
  uint64_t ok = 0, shed = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << "after " << i << " responses: "
                               << response.status().ToString();
    EXPECT_TRUE(seen.insert(response->id).second);
    if (response->status().ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(response->status().IsUnavailable())
          << response->status().ToString();
      ++shed;
    }
  }
  EXPECT_EQ(seen.size(), kRequests);
  EXPECT_EQ(ok + shed, kRequests);
  EXPECT_GT(ok, 0u);    // the server kept doing real work
  EXPECT_GT(shed, 0u);  // and it did shed under overload
  // Only acked registrations made it into the database.
  EXPECT_EQ(harness.db->size(), static_cast<size_t>(ok));
  harness.ExpectServiceable();
}

TEST(ServerTortureTest, ConnectionLimitRefusesExtraClients) {
  TempDir dir("torture");
  ServerOptions options;
  options.max_connections = 2;
  Harness harness(dir.path(), options);

  auto first = harness.Connect();
  auto second = harness.Connect();
  ASSERT_TRUE(first->Call(Request::Stats(1))->status().ok());
  ASSERT_TRUE(second->Call(Request::Stats(2))->status().ok());

  // The third connection is accepted and immediately closed by the server;
  // any attempt to use it fails rather than hangs.
  auto third = harness.Connect();
  ASSERT_NE(third, nullptr);
  (void)third->Send(Request::Stats(3));
  EXPECT_FALSE(third->Receive().ok());

  // Dropping one earlier connection frees a slot.
  first->Close();
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto retry = harness.Connect();
    if (retry != nullptr && retry->Call(Request::Stats(4)).ok()) {
      SUCCEED();
      return;
    }
  }
  FAIL() << "no connection slot was freed after a client closed";
}

}  // namespace
}  // namespace ctdb::net

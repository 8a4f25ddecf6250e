// The ctdb network service: a long-running multi-client TCP server in
// front of a broker::Broker — a single DurableDatabase or a sharded
// topology (src/shard) — selected by the caller (DESIGN.md §12).
//
// Architecture: thread per connection. One acceptor thread owns the
// listener, the max_connections cap and the drain. Every accepted
// connection gets its own thread, which reads its socket, runs
// ExecuteRequest and writes the response itself, so a request runs on the
// thread that read it and never crosses a thread boundary. A slow request
// holds up only its own connection.
//
// Ordering: a client may send any number of request frames back to back.
// The connection's thread parses every whole frame it has read, runs them
// one at a time in arrival order, then sends their responses together, so
// the responses on a connection come back in request order (a StreamOpen,
// its appends and its StreamClose may be pipelined). Responses also carry
// the request's correlation id.
//
// Admission control: at most ServerOptions::max_pending requests may be
// parsed but not yet executed, across every connection. Each frame counts
// when it is parsed, before any request of its read runs, so a pipelined
// burst on one connection sheds too. The overflow request is answered, in
// its place in the order, with Status::Unavailable — a response frame,
// never a hang — and counts net.shed.
//
// Backpressure: the thread sends a read's responses before it reads again,
// and its send blocks while the socket buffer is full. A slow reader
// therefore stops its own connection from being read; it holds no
// admission slot (every request of the read has run before the send) and
// at most one read's unsent responses.
//
// Protocol errors (bad CRC, oversized length) are unrecoverable for a
// byte stream: the server answers the whole frames before the bad one,
// then one final error response frame (id 0), and closes the connection —
// other connections are unaffected (the torture tests hold it to that).
//
// Graceful drain (RequestDrain, Shutdown, SIGTERM in tools/ctdb_server):
// the acceptor closes the listener and calls shutdown(SHUT_RD) on every
// connection, so a thread blocked in read wakes. Each thread answers the
// frames it has already read (each registration commits its WAL group
// before answering) and reads no more. A connection still blocked sending
// after drain_timeout_ms is cut off with shutdown(SHUT_RDWR), so shutdown
// always terminates. A connection's fd is closed only after its thread is
// joined, so no shutdown(2) can reach a reused descriptor.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/protocol.h"
#include "util/result.h"

namespace ctdb::broker {
class Broker;
}

namespace ctdb::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; see Server::port()
  /// Admission-control cap: requests parsed but not yet executed, across
  /// every connection, before load-shed.
  size_t max_pending = 256;
  /// Connections served at once; each holds one thread.
  size_t max_connections = 1024;
  /// Grace period for connections still sending responses during drain.
  int drain_timeout_ms = 5000;
};

/// \brief Multi-client TCP front end for a Broker.
///
/// Thread safety: Start/Shutdown/RequestDrain may be called from any
/// thread; RequestDrain is async-signal-safe after Start returned (one
/// atomic store + one write(2) on the self-pipe).
class Server {
 public:
  /// Binds, listens and starts the acceptor. `db` must outlive the server.
  /// With options.port == 0 the kernel picks a free port, reported by
  /// port().
  static Result<std::unique_ptr<Server>> Start(broker::Broker* db,
                                               const ServerOptions& options = {});

  /// Shuts down (gracefully) if still running.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolved when options.port was 0).
  uint16_t port() const { return port_; }

  /// Begins a graceful drain: stop accepting, stop reading, answer what
  /// was read, close. Returns immediately; Shutdown (or the destructor)
  /// joins. Async-signal-safe; idempotent.
  void RequestDrain();

  /// RequestDrain + join the acceptor and every connection thread, then
  /// close the listener. Idempotent; concurrent callers all return once
  /// the server has stopped.
  Status Shutdown();

  /// True once a drain was requested (the server no longer accepts work).
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Requests parsed but not yet executed (admission-control level).
  size_t pending_requests() const {
    return pending_.load(std::memory_order_acquire);
  }
  /// Currently open client connections.
  size_t connection_count() const {
    return connections_.load(std::memory_order_acquire);
  }

 private:
  struct Connection;

  Server() = default;

  /// The acceptor thread: accepts, reaps finished connections, drains.
  void AcceptLoop();
  /// A connection thread's whole life: read, answer in order, repeat.
  void Serve(Connection* conn);
  /// Pokes the self-pipe so a blocked acceptor wakes (async-signal-safe).
  void Wake();

  broker::Broker* db_ = nullptr;
  ServerOptions options_;
  uint16_t port_ = 0;
  /// Owned by the acceptor thread once it runs; closed at drain start or
  /// by Shutdown.
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::atomic<bool> draining_{false};
  std::atomic<size_t> pending_{0};
  std::atomic<size_t> connections_{0};
  std::once_flag shutdown_once_;

  std::thread acceptor_;
};

/// Executes one request against the database (run by each connection's
/// thread, and by in-process tests and benchmarks). Never returns a
/// transport error: the outcome — including InvalidArgument for a bad
/// query — is encoded in the Response.
Response ExecuteRequest(broker::Broker* db, const Request& request);

}  // namespace ctdb::net

#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <system_error>
#include <vector>

#include "broker/broker.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace ctdb::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void CloseFd(int* fd) {
  if (*fd >= 0) close(*fd);
  *fd = -1;
}

/// Writes all of `bytes` — `frames` whole response frames — blocking while
/// the socket buffer is full. False once the socket is gone.
bool SendFrames(int fd, std::string_view bytes,
                [[maybe_unused]] size_t frames) {
  while (!bytes.empty()) {
    const ssize_t n = send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      CTDB_OBS_COUNT("net.bytes.out", static_cast<uint64_t>(n));
      bytes.remove_prefix(static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  CTDB_OBS_COUNT("net.frames.out", frames);
  return true;
}

}  // namespace

/// One accepted connection. The acceptor owns it, and closes `fd` only
/// after joining `thread`.
struct Server::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};  ///< Serve returned; ready to join
};

void Server::AcceptLoop() {
  std::vector<std::unique_ptr<Connection>> conns;
  // Joins and closes every connection whose thread returned (with `all`,
  // every connection).
  const auto reap = [&](bool all) {
    std::erase_if(conns, [&](const std::unique_ptr<Connection>& conn) {
      if (!all && !conn->done.load(std::memory_order_acquire)) return false;
      conn->thread.join();
      close(conn->fd);
      connections_.fetch_sub(1, std::memory_order_acq_rel);
      CTDB_OBS_GAUGE_ADD("net.connections.active", -1);
      return true;
    });
  };
  const auto drain_wake_pipe = [this] {
    char buf[256];
    while (read(wake_read_fd_, buf, sizeof buf) > 0) {
    }
  };

  pollfd fds[2] = {{wake_read_fd_, POLLIN, 0}, {listen_fd_, POLLIN, 0}};
  while (!draining()) {
    if (poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      draining_.store(true, std::memory_order_release);  // unrecoverable
      break;
    }
    if (fds[0].revents & POLLIN) drain_wake_pipe();
    reap(false);
    if (!(fds[1].revents & POLLIN)) continue;
    for (;;) {
      // Accepted sockets block: their thread reads and sends in turn.
      const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or a transient failure: next round
      if (conns.size() >= options_.max_connections) {
        close(fd);
        CTDB_OBS_COUNT("net.accept.rejected", 1);
        continue;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      try {
        conn->thread = std::thread(&Server::Serve, this, conn.get());
      } catch (const std::system_error&) {
        close(fd);
        CTDB_OBS_COUNT("net.accept.rejected", 1);
        continue;
      }
      conns.push_back(std::move(conn));
      connections_.fetch_add(1, std::memory_order_acq_rel);
      CTDB_OBS_COUNT("net.connections.accepted", 1);
      CTDB_OBS_GAUGE_ADD("net.connections.active", 1);
    }
  }

  // Drain: stop accepting, wake every thread blocked in read, and wait for
  // each to answer what it has read.
  CloseFd(&listen_fd_);
  for (const auto& conn : conns) shutdown(conn->fd, SHUT_RD);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  for (reap(false); !conns.empty(); reap(false)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      // Cut off the connections still sending to a reader that does not
      // read; their blocked send fails and the thread returns.
      for (const auto& conn : conns) shutdown(conn->fd, SHUT_RDWR);
      break;
    }
    pollfd wake{wake_read_fd_, POLLIN, 0};
    if (poll(&wake, 1, static_cast<int>(left)) > 0) drain_wake_pipe();
  }
  reap(true);
}

void Server::Serve(Connection* conn) {
  const int fd = conn->fd;
  struct Parsed {
    Request request;
    bool admitted;  ///< counted against max_pending; otherwise shed
  };
  // Executes (or sheds) one request and frees its admission slot.
  const auto answer = [&](const Parsed& parsed) {
    if (!parsed.admitted) {
      return Response::Error(
          parsed.request,
          Status::Unavailable("server overloaded: request queue full"));
    }
    const Timer timer;
    Response response;
    try {
      response = ExecuteRequest(db_, parsed.request);
    } catch (const std::exception& e) {
      // Answer rather than let the exception end the thread (and process).
      response = Response::Error(
          parsed.request,
          Status::Internal(std::string("request threw: ") + e.what()));
    }
    CTDB_OBS_HIST("net.request_us",
                  static_cast<uint64_t>(timer.ElapsedMicros()));
    CTDB_OBS_COUNT("net.requests", 1);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    CTDB_OBS_GAUGE_ADD("net.queue.depth", -1);
    return response;
  };

  std::vector<Parsed> batch;
  std::string inbuf;
  char buf[64 * 1024];
  while (!draining()) {
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    // EOF (the peer's, or the drain's SHUT_RD) or a dead socket; a partial
    // frame is dropped unanswered.
    if (n <= 0) break;
    CTDB_OBS_COUNT("net.bytes.in", static_cast<uint64_t>(n));
    inbuf.append(buf, static_cast<size_t>(n));

    // Admission control: every whole frame counts against max_pending
    // before any request of this read runs.
    Status error;
    size_t offset = 0;
    for (std::string_view payload;;) {
      const FrameScan scan = ScanFrame(inbuf, &offset, &payload);
      if (scan == FrameScan::kNeedMore) break;
      if (scan == FrameScan::kCorrupt) {
        error = Status::Corruption("invalid frame");
        break;
      }
      CTDB_OBS_COUNT("net.frames.in", 1);
      Request request;
      error = DecodeRequestPayload(payload, &request);
      if (!error.ok()) break;
      const bool admitted = pending_.fetch_add(1, std::memory_order_acq_rel) <
                            options_.max_pending;
      if (admitted) {
        CTDB_OBS_GAUGE_ADD("net.queue.depth", 1);
      } else {
        pending_.fetch_sub(1, std::memory_order_acq_rel);
        CTDB_OBS_COUNT("net.shed", 1);
      }
      batch.push_back({std::move(request), admitted});
    }
    inbuf.erase(0, offset);

    // Run every request of this read in arrival order, and only then send
    // their responses together: no admission slot is held across a send
    // that blocks, so a slow reader holds none.
    std::string out;
    for (const Parsed& parsed : batch) {
      out += EncodeResponseFrame(answer(parsed));
    }
    size_t frames = batch.size();
    batch.clear();
    // A framing violation is unrecoverable on a byte stream: one final
    // error frame (correlation id 0 — the request id is unknowable), then
    // close.
    if (!error.ok()) {
      CTDB_OBS_COUNT("net.protocol_errors", 1);
      Response response;
      response.id = 0;
      response.request_kind = MsgKind::kQuery;
      response.code = error.code();
      response.message = error.message();
      out += EncodeResponseFrame(response);
      ++frames;
    }
    if (!SendFrames(fd, out, frames) || !error.ok()) break;
  }
  // The peer sees EOF now; the acceptor closes the fd once it has joined
  // this thread.
  shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
  Wake();
}

Result<std::unique_ptr<Server>> Server::Start(broker::Broker* db,
                                              const ServerOptions& options) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  // Every failure below returns through ~Server, which closes whatever
  // was opened.
  std::unique_ptr<Server> server(new Server);
  server->db_ = db;
  server->options_ = options;
  if (server->options_.max_pending == 0) server->options_.max_pending = 1;

  const int listen_fd =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Errno("socket");
  server->listen_fd_ = listen_fd;
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable host " + options.host);
  }
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return Errno("bind");
  }
  if (listen(listen_fd, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }
  server->port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) return Errno("pipe2");
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];

  server->acceptor_ = std::thread(&Server::AcceptLoop, server.get());
  return server;
}

Server::~Server() { Shutdown(); }

void Server::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  Wake();
}

void Server::Wake() {
  if (wake_write_fd_ >= 0) {
    const char byte = 1;
    // A full pipe means a wakeup is already pending — nothing to do.
    [[maybe_unused]] const ssize_t n = write(wake_write_fd_, &byte, 1);
  }
}

Status Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    RequestDrain();
    if (acceptor_.joinable()) acceptor_.join();
    CloseFd(&listen_fd_);
    CloseFd(&wake_read_fd_);
    CloseFd(&wake_write_fd_);
  });
  return Status::OK();
}

Response ExecuteRequest(broker::Broker* db, const Request& request) {
  Response response;
  response.id = request.id;
  response.request_kind = request.kind;
  switch (request.kind) {
    case MsgKind::kRegister: {
      auto result = db->Register(request.name, request.ltl);
      if (!result.ok()) return Response::Error(request, result.status());
      response.ids.push_back(*result);
      break;
    }
    case MsgKind::kRegisterBatch: {
      std::vector<broker::ContractDatabase::BatchEntry> entries;
      entries.reserve(request.entries.size());
      for (const Request::Entry& entry : request.entries) {
        entries.push_back({entry.name, entry.ltl});
      }
      auto result = db->RegisterBatch(entries);
      if (!result.ok()) return Response::Error(request, result.status());
      response.ids = std::move(*result);
      break;
    }
    case MsgKind::kQuery: {
      broker::QueryOptions options;
      options.as_of = request.as_of;
      auto result = db->Query(request.ltl, options);
      if (!result.ok()) return Response::Error(request, result.status());
      Response::Answer answer;
      answer.matches = std::move(result->matches);
      answer.total_us =
          static_cast<uint64_t>(result->stats.total_ms * 1000.0);
      answer.candidates = result->stats.candidates;
      response.answers.push_back(std::move(answer));
      break;
    }
    case MsgKind::kQueryBatch: {
      broker::QueryOptions options;
      options.as_of = request.as_of;
      auto result = db->QueryBatch(request.queries, options);
      if (!result.ok()) return Response::Error(request, result.status());
      response.answers.reserve(result->size());
      for (broker::QueryResult& qr : *result) {
        Response::Answer answer;
        answer.matches = std::move(qr.matches);
        answer.total_us = static_cast<uint64_t>(qr.stats.total_ms * 1000.0);
        answer.candidates = qr.stats.candidates;
        response.answers.push_back(std::move(answer));
      }
      break;
    }
    case MsgKind::kCheckpoint: {
      const Status status = db->Checkpoint();
      if (!status.ok()) return Response::Error(request, status);
      response.sequence = db->last_sequence();
      break;
    }
    case MsgKind::kStats: {
      response.stats_json = db->Metrics().ToJson();
      break;
    }
    case MsgKind::kUnregister: {
      auto result = db->Unregister(request.contract_id);
      if (!result.ok()) return Response::Error(request, result.status());
      response.sequence = *result;
      break;
    }
    case MsgKind::kReplace: {
      auto result = db->Replace(request.contract_id, request.ltl);
      if (!result.ok()) return Response::Error(request, result.status());
      response.sequence = *result;
      break;
    }
    case MsgKind::kStreamOpen: {
      monitor::StreamOptions options;
      options.as_of = request.as_of;
      auto result = db->StreamOpen(request.name, options);
      if (!result.ok()) return Response::Error(request, result.status());
      response.sequence = result->clock;
      response.tracked = result->tracked;
      break;
    }
    case MsgKind::kStreamAppend: {
      auto result = db->StreamAppend(request.name, request.events);
      if (!result.ok()) return Response::Error(request, result.status());
      response.events = result->events;
      response.stepped = result->stepped;
      response.pruned = result->pruned;
      response.verdicts = std::move(result->deltas);
      break;
    }
    case MsgKind::kStreamClose: {
      auto result = db->StreamClose(request.name);
      if (!result.ok()) return Response::Error(request, result.status());
      response.events = result->events;
      response.satisfied = result->satisfied;
      response.violated = result->violated;
      response.undetermined = result->undetermined;
      response.verdicts = std::move(result->verdicts);
      break;
    }
    case MsgKind::kResponse:
      return Response::Error(
          request, Status::InvalidArgument("kResponse is not a request"));
  }
  return response;
}

}  // namespace ctdb::net

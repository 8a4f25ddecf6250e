// Blocking TCP client for the ctdb wire protocol (net/protocol.h).
//
// One Client wraps one connection. `Call` is the simple request/response
// path; `Send` + `Receive` decouple the two halves for pipelining — any
// number of requests may be written before the first response is read,
// and the server runs and answers a connection's requests one at a time in
// the order it received them (each response also carries its request's
// correlation id). `SendBytes` writes raw bytes, which is how the torture
// tests inject half frames and garbage.
//
// Thread safety: none — one Client per thread (the load generator opens
// one per worker).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/protocol.h"
#include "util/result.h"

namespace ctdb::net {

class Client {
 public:
  /// Connects (blocking) to host:port.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Writes one request frame (blocking until fully written).
  Status Send(const Request& request);

  /// Writes raw bytes verbatim — torture-test entry point for half frames
  /// and garbage.
  Status SendBytes(std::string_view bytes);

  /// Reads one whole response frame (blocking). Unavailable when the peer
  /// closed before a full frame arrived; Corruption when it sent one that
  /// does not decode.
  Result<Response> Receive();

  /// Send + Receive. Responses come back in request order, so this
  /// returns the earliest unanswered request's response: this request's
  /// only when no earlier pipelined request is still unanswered.
  Result<Response> Call(const Request& request);

  /// Half-closes the write side (shutdown(SHUT_WR)) — the server sees EOF,
  /// finishes what it received and responds before closing.
  void CloseWrite();
  /// Closes the socket entirely.
  void Close();

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string inbuf_;  ///< bytes received beyond the last returned frame
  size_t in_pos_ = 0;
};

}  // namespace ctdb::net

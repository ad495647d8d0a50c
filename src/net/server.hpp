// NpdpServer: serve::SolveService behind the shared epoll TCP front-end.
//
// The socket machinery — acceptor, reactors, partial-frame reassembly,
// outbox/eventfd cross-thread replies, half-close drain, idle sweep,
// bounded stop() drain — lives in net::EpollFrontEnd (frontend.hpp) and
// is shared with the router tier. This class is the *host*: it supplies
// the frame handler that decodes request payloads, submits them to the
// SolveService, and encodes terminal responses back through the
// front-end. Every other frame goes to EpollFrontEnd::answer_control,
// which asks this class only for its JSON text and its queue depth.
//
// Shutdown (stop(), also the SIGTERM path in the CLI) drains gracefully:
// the front-end stops accepting, SolveService::stop(drain=true) answers
// everything admitted, every outbox flushes to its socket (bounded by
// drain_timeout_ms), then the reactors come down.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/frontend.hpp"
#include "net/protocol.hpp"
#include "serve/service.hpp"

namespace cellnpdp::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the result via port()
  int reactors = 2;
  std::size_t max_frame = kDefaultMaxFrame;  ///< payload byte cap
  /// Idle connections (no bytes received, nothing in flight or pending
  /// write) are closed after this long; 0 disables the slow-loris sweep.
  std::int64_t idle_timeout_ms = 30000;
  /// stop() budget for flushing already-computed responses to sockets.
  std::int64_t drain_timeout_ms = 5000;
};

/// Point-in-time network counters (service counters live in
/// serve::ServiceStats; obs mirrors both under net.* / serve.*).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t disconnects = 0;  ///< closes for any reason
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;        ///< well-formed frames parsed
  std::uint64_t responses = 0;        ///< response frames enqueued
  std::uint64_t frames_bad = 0;       ///< malformed/oversized/bad-magic
  std::uint64_t protocol_errors = 0;  ///< ProtoError frames sent
  std::uint64_t dropped_responses = 0;  ///< connection gone at completion
  std::size_t active_conns = 0;
};

class NpdpServer {
 public:
  NpdpServer(ServerOptions net, serve::ServiceOptions service);
  ~NpdpServer();  // stop()

  NpdpServer(const NpdpServer&) = delete;
  NpdpServer& operator=(const NpdpServer&) = delete;

  /// Binds, listens, and spawns the acceptor + reactors. False with *err
  /// on bind/listen failure. Call at most once.
  bool start(std::string* err);

  /// Graceful drain (see file header). Idempotent; also run by ~NpdpServer.
  void stop();

  /// The bound port (valid after start(); resolves port 0).
  std::uint16_t port() const { return fe_.port(); }

  ServerStats stats() const;
  serve::SolveService& service() { return service_; }
  const ServerOptions& options() const { return opts_; }

 private:
  void handle_frame(const EpollFrontEnd::ConnPtr& c, const FrameHeader& h,
                    const std::uint8_t* payload);
  std::string stats_json() const;

  const ServerOptions opts_;
  serve::SolveService service_;
  EpollFrontEnd fe_;
};

}  // namespace cellnpdp::net

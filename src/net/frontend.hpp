// EpollFrontEnd: the reusable epoll TCP front-end shared by NpdpServer,
// the router tier (src/router) and the stats-only port of a process that
// serves no requests (start_stats_port). It owns everything below the frame
// boundary — accepting, reactor event loops, partial-frame reassembly,
// header policy (magic / version range / size cap), the per-connection
// outbox + eventfd wake for cross-thread replies, half-close drain, the
// slow-loris idle sweep, and the bounded stop() drain — and hands every
// well-formed frame to a host-supplied handler.
//
// Thread architecture (unchanged from the original NpdpServer):
//
//   acceptor          one thread; epoll{listen fd, wake}; accepted
//                     connections are pinned to a reactor by fd hash
//   reactor[i]        N event loops; each owns its connections' reads,
//                     frame parsing, handler dispatch, and socket writes
//   host threads      whatever computes replies (SolveService workers,
//                     the router's upstream io threads); they re-enter
//                     the owning reactor via async_reply()
//
// Handler contract: the FrameHandler runs on the owning reactor thread.
// It may answer immediately with reply_now(), or go asynchronous by
// calling begin_async() before handing off and completing — exactly once
// — with async_reply() from any thread. A connection's buffers are only
// ever touched by its reactor; the cross-thread handoff happens through
// the mutex-protected outbox, so frames are never interleaved. A client
// that disconnects before its async reply lands simply drops the reply
// (counted as dropped_responses, never dangling).
//
// Header-level protocol policy lives here: bad magic disconnects, an
// unsupported version or an oversized payload gets a typed ProtoError and
// a close-after-flush. Payload-level policy is the handler's job: it
// reports a decode failure via note_bad_frame() so the front-end's
// counters stay the single source of truth, and passes every frame that
// is not one of its requests to answer_control(), so the control frames
// and an unknown type get one answer on every host.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"

namespace cellnpdp::net {

struct FrontEndOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the result via port()
  int reactors = 2;
  std::size_t max_frame = kDefaultMaxFrame;  ///< payload byte cap
  /// Idle connections (no bytes received, nothing in flight or pending
  /// write) are closed after this long; 0 disables the slow-loris sweep.
  std::int64_t idle_timeout_ms = 30000;
  /// stop() budget for flushing already-computed responses to sockets.
  std::int64_t drain_timeout_ms = 5000;
  /// Prefix for thread names and obs counters ("net" -> net.accepted...).
  std::string counter_prefix = "net";
};

/// Point-in-time front-end counters.
struct FrontEndStats {
  std::uint64_t accepted = 0;
  std::uint64_t disconnects = 0;  ///< closes for any reason
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;        ///< well-formed frames parsed
  std::uint64_t responses = 0;        ///< async replies delivered
  std::uint64_t frames_bad = 0;       ///< malformed/oversized/bad-magic
  std::uint64_t protocol_errors = 0;  ///< ProtoError frames sent
  std::uint64_t dropped_responses = 0;  ///< connection gone at completion
  std::size_t active_conns = 0;
};

class EpollFrontEnd {
 public:
  struct Conn;  // opaque to hosts; defined in frontend.cpp
  using ConnPtr = std::shared_ptr<Conn>;
  using ConnRef = std::weak_ptr<Conn>;

  /// One well-formed frame (magic/version/size already enforced), on the
  /// owning reactor thread. `payload` points at h.len bytes valid only
  /// for the duration of the call.
  using FrameHandler = std::function<void(
      const ConnPtr&, const FrameHeader&, const std::uint8_t* payload)>;
  /// Runs inside stop() after the listener closed and before the bounded
  /// flush wait; the host drains its pipeline here so every admitted
  /// request still produces a reply while the reactors keep running.
  using DrainHook = std::function<void()>;

  explicit EpollFrontEnd(FrontEndOptions opts);
  ~EpollFrontEnd();  // stop()

  EpollFrontEnd(const EpollFrontEnd&) = delete;
  EpollFrontEnd& operator=(const EpollFrontEnd&) = delete;

  /// Must be set before start().
  void set_frame_handler(FrameHandler h) { handler_ = std::move(h); }
  void set_drain_hook(DrainHook h) { drain_hook_ = std::move(h); }

  /// Binds, listens, and spawns the acceptor + reactors. False with *err
  /// on bind/listen failure. Call at most once.
  bool start(std::string* err);

  /// Graceful drain: stop accepting, run the drain hook, wait (bounded
  /// by drain_timeout_ms) until nothing is in flight and every outbox
  /// byte reached a socket, then take the reactors down. Idempotent.
  void stop();

  /// The bound port (valid after start(); resolves port 0).
  std::uint16_t port() const { return port_; }

  FrontEndStats stats() const;

  // --- handler-side API ----------------------------------------------------

  /// Synchronous reply from the frame handler (owning reactor thread
  /// only): enqueue and push to the socket in one step.
  void reply_now(const ConnPtr& c, std::vector<std::uint8_t> frame);

  /// Marks one request in flight on this connection before an async
  /// handoff. Pairs with exactly one async_reply(); the pairing is what
  /// keeps half-close drain and stop() honest about what is still owed.
  void begin_async(const ConnPtr& c);

  /// Completes an async request from any thread. Returns false (and
  /// counts dropped_responses) when the connection is already gone.
  bool async_reply(const ConnRef& wc, std::vector<std::uint8_t> frame);

  /// Handler-detected payload-level violation (decode failure, unknown
  /// type): bumps frames_bad + protocol_errors so the front-end counters
  /// stay authoritative. The error frame itself goes via reply_now().
  void note_bad_frame();

  /// Answers a frame that is not one of the host's requests: Pong for
  /// Ping, `stats_json()` for Stats, and for StatsRequest the registry
  /// snapshot, the breaker board and `queue_depth()`; each hook runs only
  /// for the frame that needs it. Any other type is a bad frame, answered
  /// UnknownType with the connection kept open.
  void answer_control(const ConnPtr& c, const FrameHeader& h,
                      const std::function<std::string()>& stats_json,
                      const std::function<std::int64_t()>& queue_depth);

 private:
  struct Reactor;

  void acceptor_loop();
  void reactor_loop(Reactor& r);
  void adopt_incoming(Reactor& r);
  void on_readable(Reactor& r, const ConnPtr& c);
  void parse_frames(Reactor& r, const ConnPtr& c);
  void enqueue_out(const ConnPtr& c, std::vector<std::uint8_t> frame);
  void pump_out(Reactor& r, const ConnPtr& c);
  void close_conn(Reactor& r, const ConnPtr& c);
  void sweep_idle(Reactor& r);
  /// obs counter name under the configured prefix ("net.accepted", ...).
  std::string cname(const char* suffix) const;

  const FrontEndOptions opts_;
  FrameHandler handler_;
  DrainHook drain_hook_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> accept_stop_{false};
  std::atomic<bool> reactor_stop_{false};

  int listen_fd_ = -1;
  int accept_wake_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Reactor>> reactors_;

  // stop() watches these two to know when every computed response has
  // reached a socket: async requests not yet answered + bytes enqueued
  // but not yet written.
  std::atomic<std::int64_t> inflight_total_{0};
  std::atomic<std::int64_t> out_pending_bytes_{0};

  std::atomic<std::uint64_t> accepted_{0}, disconnects_{0}, bytes_in_{0},
      bytes_out_{0}, frames_in_{0}, responses_{0}, frames_bad_{0},
      protocol_errors_{0}, dropped_responses_{0};
  std::atomic<std::int64_t> active_conns_{0};
};

/// A one-reactor front end on host:port (0 = ephemeral) that answers only
/// the control frames, with {"metrics": <registry>} as its JSON text and a
/// queue depth of 0. Null with *err when the bind fails; destroying the
/// result stops it.
std::unique_ptr<EpollFrontEnd> start_stats_port(const std::string& host,
                                                std::uint16_t port,
                                                std::string* err);

}  // namespace cellnpdp::net

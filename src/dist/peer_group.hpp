// The peer mesh under a distributed solve: one PeerGroup per rank owns
// the TCP connections to every other rank, establishes them with a
// PeerHello handshake that refuses mismatched workloads, and pumps
// received frames to the solver from one receiver thread per connection.
//
// Establishment is deadlock-free by construction: rank r listens on
// endpoints[r], actively connects to every rank below it (with retry
// until the connect deadline, so peers may start in any order), and
// accepts from every rank above it. The connector sends its PeerHello
// first; the acceptor validates the fingerprint and answers with its
// own, so both sides prove they are solving the same instance before a
// single block crosses the wire.
//
// Sending is thread-safe per connection (one mutex per peer fd) and a
// send failure throws DistError — a half-written frame means the peer is
// gone and the solve cannot complete. Receiving never blocks forever on
// a byte that will not come: reads poll in short slices so stop() is
// honoured promptly, and a connection that closes before the solve is
// finished is reported through the on_error callback rather than hung on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/peer_wire.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace cellnpdp::dist {

/// Any failure that aborts a distributed solve: handshake mismatch,
/// connect deadline, peer death mid-solve, malformed peer frame.
class DistError : public std::runtime_error {
 public:
  explicit DistError(const std::string& what) : std::runtime_error(what) {}
};

struct PeerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct PeerGroupOptions {
  int connect_timeout_ms = 5000;  ///< total budget to build the full mesh
  std::size_t max_frame = net::kDefaultMaxFrame;
};

class PeerGroup {
 public:
  /// A received frame, handed to the receive handler. `payload` is only
  /// valid for the duration of the call.
  using FrameHandler = std::function<void(
      std::uint32_t src_rank, const net::FrameHeader& header,
      const std::uint8_t* payload, std::size_t len)>;
  /// Called (once per failing connection) when a peer dies or sends
  /// garbage; the receiver thread exits after reporting.
  using ErrorHandler =
      std::function<void(std::uint32_t src_rank, const std::string& what)>;

  PeerGroup(std::uint32_t rank, std::vector<PeerEndpoint> endpoints,
            PeerGroupOptions opts = {});
  ~PeerGroup();

  PeerGroup(const PeerGroup&) = delete;
  PeerGroup& operator=(const PeerGroup&) = delete;

  /// Hands the group a pre-bound listening fd for endpoints[rank]
  /// (ownership transfers). The in-process driver binds all listeners
  /// up front so every peer knows every port before any connect starts.
  void adopt_listener(int fd);

  /// Builds the full mesh and completes the hello exchange with every
  /// peer. `self` must carry this group's rank; throws DistError on any
  /// mismatch, timeout, or wire failure. Fills `peer_hellos()`.
  void establish(const PeerHello& self);

  /// Starts one receiver thread per peer connection. Must follow
  /// establish(). Handlers may be called concurrently from different
  /// receiver threads (one per peer, frames from one peer in order).
  void start_receiving(FrameHandler on_frame, ErrorHandler on_error);

  /// Sends one encoded frame to every peer (throws DistError on failure).
  void send_to_all(const std::vector<std::uint8_t>& frame);
  void send_to(std::uint32_t rank, const std::vector<std::uint8_t>& frame);

  /// Marks the group as shutting down and closes all sockets; receiver
  /// threads exit without reporting errors. Idempotent; the destructor
  /// calls it.
  void stop();

  /// Marks `peer` as having finished its protocol (its PeerDone was
  /// processed). A clean EOF from a finished peer is a normal shutdown —
  /// a rank that assembles its matrix first closes its sockets while
  /// slower ranks are still draining — and is not reported as an error.
  /// Call from that peer's frame handler (the same receiver thread that
  /// will later observe the EOF).
  void mark_finished(std::uint32_t peer);

  std::uint32_t rank() const { return rank_; }
  std::uint32_t nranks() const {
    return static_cast<std::uint32_t>(endpoints_.size());
  }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }

  /// The hello each peer presented during establishment (index = rank;
  /// the entry for this group's own rank is `self` as passed in).
  const std::vector<PeerHello>& peer_hellos() const { return hellos_; }

 private:
  struct Conn {
    net::FdGuard fd;
    std::mutex send_mu;
    std::atomic<bool> finished{false};  ///< peer completed its protocol
  };

  void receiver_loop(std::uint32_t peer, FrameHandler on_frame,
                     ErrorHandler on_error);
  /// Reads exactly one frame (header + payload) from `fd` into `buf`.
  /// Returns false with *err set on close/error/deadline; a deadline of
  /// <0 means wait indefinitely (still honouring stop()).
  bool read_frame(int fd, std::vector<std::uint8_t>* buf,
                  net::FrameHeader* h, int deadline_ms, std::string* err);

  std::uint32_t rank_;
  std::vector<PeerEndpoint> endpoints_;
  PeerGroupOptions opts_;
  net::FdGuard listener_;
  std::vector<Conn> conns_;  ///< index = peer rank; self entry unused
  std::vector<PeerHello> hellos_;
  std::vector<std::thread> receivers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
  // net.peer.bytes_sent / bytes_received, registered when the group is
  // built: a stats poll during the handshake already sees a peer.
  obs::Counter& tx_bytes_;
  obs::Counter& rx_bytes_;
};

}  // namespace cellnpdp::dist

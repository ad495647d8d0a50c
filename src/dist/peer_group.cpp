#include "dist/peer_group.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"

namespace cellnpdp::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Receive poll slice: short enough that stop() is honoured promptly,
/// long enough that an idle receiver costs ~10 wakeups/second.
constexpr int kPollSliceMs = 100;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

bool hello_compatible(const PeerHello& a, const PeerHello& b) {
  return a.nranks == b.nranks && a.config_hash == b.config_hash &&
         a.n == b.n && a.block_side == b.block_side &&
         a.semiring == b.semiring && a.elem_bytes == b.elem_bytes;
}

std::string describe(const PeerEndpoint& e) {
  return e.host + ":" + std::to_string(e.port);
}

}  // namespace

PeerGroup::PeerGroup(std::uint32_t rank, std::vector<PeerEndpoint> endpoints,
                     PeerGroupOptions opts)
    : rank_(rank),
      endpoints_(std::move(endpoints)),
      opts_(opts),
      conns_(endpoints_.size()),
      hellos_(endpoints_.size()),
      tx_bytes_(obs::metrics().counter("net.peer.bytes_sent")),
      rx_bytes_(obs::metrics().counter("net.peer.bytes_received")) {
  if (endpoints_.size() < 2)
    throw DistError("peer group needs at least 2 endpoints");
  if (rank_ >= endpoints_.size())
    throw DistError("rank " + std::to_string(rank_) + " out of range for " +
                    std::to_string(endpoints_.size()) + " peers");
}

PeerGroup::~PeerGroup() { stop(); }

void PeerGroup::adopt_listener(int fd) { listener_.reset(fd); }

bool PeerGroup::read_frame(int fd, std::vector<std::uint8_t>* buf,
                           net::FrameHeader* h, int deadline_ms,
                           std::string* err) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           deadline_ms < 0 ? 0 : deadline_ms);
  buf->clear();
  std::size_t want = net::kHeaderSize;  // grows once the header is parsed
  bool have_header = false;
  std::uint8_t tmp[64 * 1024];
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) {
      *err = "stopped";
      return false;
    }
    if (buf->size() >= want) {
      if (!have_header) {
        switch (net::parse_header(buf->data(), buf->size(), h)) {
          case net::HeaderParse::BadMagic:
            *err = "bad magic: peer stream unsynchronized";
            return false;
          case net::HeaderParse::NeedMore:
            break;  // unreachable: buf->size() >= kHeaderSize
          case net::HeaderParse::Ok: {
            if (h->version < net::kMinVersion || h->version > net::kVersion) {
              *err = "unsupported protocol version " +
                     std::to_string(h->version);
              return false;
            }
            if (h->len > opts_.max_frame) {
              *err = "frame too large (" + std::to_string(h->len) +
                     " > " + std::to_string(opts_.max_frame) + ")";
              return false;
            }
            have_header = true;
            want = net::kHeaderSize + h->len;
            break;
          }
        }
      }
      if (have_header && buf->size() >= want) return true;
    }
    const std::size_t chunk =
        std::min(sizeof tmp, want > buf->size() ? want - buf->size()
                                                : sizeof tmp);
    const long got = net::recv_some(fd, tmp, chunk, kPollSliceMs);
    if (got > 0) {
      buf->insert(buf->end(), tmp, tmp + got);
      continue;
    }
    if (got == 0) {
      *err = buf->empty() ? "peer closed connection"
                          : "peer closed connection mid-frame (" +
                                std::to_string(buf->size()) +
                                " bytes buffered)";
      return false;
    }
    if (got == -1) {
      *err = "recv error";
      return false;
    }
    // -2: poll slice elapsed with no bytes.
    if (deadline_ms >= 0 && Clock::now() >= deadline) {
      *err = "read timeout";
      return false;
    }
  }
}

void PeerGroup::establish(const PeerHello& self) {
  if (self.rank != rank_ || self.nranks != nranks())
    throw DistError("hello rank/nranks does not match the group");
  hellos_[rank_] = self;

  std::string err;
  if (!listener_.valid()) {
    const int lfd =
        net::tcp_listen(endpoints_[rank_].host, endpoints_[rank_].port, &err);
    if (lfd < 0)
      throw DistError("rank " + std::to_string(rank_) + ": listen on " +
                      describe(endpoints_[rank_]) + " failed: " + err);
    listener_.reset(lfd);
  }

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opts_.connect_timeout_ms);
  const auto hello_frame = encode_peer_hello(rank_, self);

  // Validates and stores a hello read from `fd`; returns the peer rank.
  const auto finish_handshake = [&](int fd, std::string who,
                                    bool expect_lower) -> std::uint32_t {
    std::vector<std::uint8_t> buf;
    net::FrameHeader h;
    if (!read_frame(fd, &buf, &h, remaining_ms(deadline), &err))
      throw DistError("handshake with " + who + ": " + err);
    if (h.type != net::MsgType::PeerHello)
      throw DistError("handshake with " + who + ": expected PeerHello, got " +
                      std::to_string(static_cast<int>(h.type)));
    PeerHello peer;
    if (!decode_peer_hello(h.version, buf.data() + net::kHeaderSize, h.len,
                           &peer, &err))
      throw DistError("handshake with " + who + ": " + err);
    if (peer.rank == rank_ || peer.rank >= nranks())
      throw DistError("handshake with " + who + ": rank " +
                      std::to_string(peer.rank) + " invalid");
    if (expect_lower ? peer.rank < rank_ : peer.rank > rank_) {
      // expected direction; fall through
    } else {
      throw DistError("handshake with " + who + ": rank " +
                      std::to_string(peer.rank) +
                      " connected from the wrong side");
    }
    if (!hello_compatible(self, peer))
      throw DistError(
          "handshake with " + who +
          ": workload fingerprint mismatch (peers must run identical "
          "instances)");
    if (conns_[peer.rank].fd.valid())
      throw DistError("handshake with " + who + ": duplicate rank " +
                      std::to_string(peer.rank));
    hellos_[peer.rank] = peer;
    return peer.rank;
  };

  // Phase 1 — actively connect to every lower rank (they are listening).
  for (std::uint32_t l = 0; l < rank_; ++l) {
    int fd = -1;
    while (true) {
      const int left = remaining_ms(deadline);
      if (left == 0)
        throw DistError("rank " + std::to_string(rank_) + ": connect to peer " +
                        std::to_string(l) + " (" + describe(endpoints_[l]) +
                        ") timed out: " + err);
      fd = net::tcp_connect_timeout(endpoints_[l].host, endpoints_[l].port,
                                    left, &err);
      if (fd >= 0) break;
      if (Clock::now() >= deadline)
        throw DistError("rank " + std::to_string(rank_) + ": connect to peer " +
                        std::to_string(l) + " (" + describe(endpoints_[l]) +
                        ") timed out: " + err);
      // The peer may simply not have bound yet; retry until the deadline.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    net::FdGuard guard(fd);
    if (!net::send_all(fd, hello_frame.data(), hello_frame.size()))
      throw DistError("rank " + std::to_string(rank_) +
                      ": hello send to peer " + std::to_string(l) + " failed");
    const std::uint32_t who =
        finish_handshake(fd, "peer " + std::to_string(l), /*expect_lower=*/
                         true);
    if (who != l)
      throw DistError("endpoint " + describe(endpoints_[l]) +
                      " answered as rank " + std::to_string(who) +
                      ", expected " + std::to_string(l));
    conns_[l].fd = std::move(guard);
  }

  // Phase 2 — accept every higher rank (they connect to us).
  std::uint32_t pending = nranks() - 1 - rank_;
  while (pending > 0) {
    struct pollfd pfd{listener_.get(), POLLIN, 0};
    const int left = remaining_ms(deadline);
    if (left == 0)
      throw DistError("rank " + std::to_string(rank_) + ": timed out with " +
                      std::to_string(pending) + " peer(s) unconnected");
    const int pr = ::poll(&pfd, 1, std::min(left, kPollSliceMs));
    if (pr < 0 && errno != EINTR)
      throw DistError("rank " + std::to_string(rank_) + ": poll failed");
    if (pr <= 0) continue;
    const int cfd = ::accept4(listener_.get(), nullptr, nullptr, 0);
    if (cfd < 0) continue;
    net::FdGuard guard(cfd);
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::uint32_t who =
        finish_handshake(cfd, "accepted peer", /*expect_lower=*/false);
    if (!net::send_all(cfd, hello_frame.data(), hello_frame.size()))
      throw DistError("rank " + std::to_string(rank_) +
                      ": hello reply to rank " + std::to_string(who) +
                      " failed");
    conns_[who].fd = std::move(guard);
    --pending;
  }
}

void PeerGroup::start_receiving(FrameHandler on_frame, ErrorHandler on_error) {
  receivers_.reserve(nranks() - 1);
  for (std::uint32_t p = 0; p < nranks(); ++p) {
    if (p == rank_) continue;
    if (!conns_[p].fd.valid())
      throw DistError("start_receiving before establish()");
    receivers_.emplace_back([this, p, on_frame, on_error] {
      receiver_loop(p, on_frame, on_error);
    });
  }
}

void PeerGroup::receiver_loop(std::uint32_t peer, FrameHandler on_frame,
                              ErrorHandler on_error) {
  std::vector<std::uint8_t> buf;
  std::string err;
  while (true) {
    net::FrameHeader h;
    if (!read_frame(conns_[peer].fd.get(), &buf, &h, /*deadline_ms=*/-1,
                    &err)) {
      // A frame-boundary EOF from a peer whose protocol completed is the
      // normal end of stream: a rank that assembles its matrix first
      // closes its sockets while slower ranks are still draining others.
      if (buf.empty() &&
          conns_[peer].finished.load(std::memory_order_acquire))
        return;
      if (!stopping_.load(std::memory_order_acquire)) on_error(peer, err);
      return;
    }
    bytes_received_.fetch_add(net::kHeaderSize + h.len,
                              std::memory_order_relaxed);
    rx_bytes_.add(static_cast<std::int64_t>(net::kHeaderSize + h.len));
    try {
      on_frame(peer, h, buf.data() + net::kHeaderSize, h.len);
    } catch (const std::exception& e) {
      if (!stopping_.load(std::memory_order_acquire)) on_error(peer, e.what());
      return;
    }
  }
}

void PeerGroup::send_to(std::uint32_t rank,
                        const std::vector<std::uint8_t>& frame) {
  if (rank >= nranks() || rank == rank_ || !conns_[rank].fd.valid())
    throw DistError("send_to: no connection to rank " + std::to_string(rank));
  {
    std::lock_guard<std::mutex> lock(conns_[rank].send_mu);
    if (!net::send_all(conns_[rank].fd.get(), frame.data(), frame.size()))
      throw DistError("send to rank " + std::to_string(rank) +
                      " failed (peer gone?)");
  }
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  tx_bytes_.add(static_cast<std::int64_t>(frame.size()));
}

void PeerGroup::send_to_all(const std::vector<std::uint8_t>& frame) {
  for (std::uint32_t p = 0; p < nranks(); ++p)
    if (p != rank_) send_to(p, frame);
}

void PeerGroup::mark_finished(std::uint32_t peer) {
  if (peer < conns_.size())
    conns_[peer].finished.store(true, std::memory_order_release);
}

void PeerGroup::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Already stopping: just make sure the threads are joined (the first
    // caller may have been the destructor racing an explicit stop()).
  } else {
    for (auto& c : conns_)
      if (c.fd.valid()) ::shutdown(c.fd.get(), SHUT_RDWR);
  }
  for (auto& t : receivers_)
    if (t.joinable()) t.join();
  receivers_.clear();
}

}  // namespace cellnpdp::dist

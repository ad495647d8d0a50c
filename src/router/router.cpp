#include "router/router.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "common/json.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"

namespace cellnpdp::router {

namespace {
using SteadyClock = std::chrono::steady_clock;
using net::EpollFrontEnd;
using net::FrameHeader;

/// Wire byte for an Open breaker (resilience::BreakerState is frozen in
/// declaration order; the stats frame ships it as a u8).
constexpr std::uint8_t kBreakerOpenWire = 1;

void patch_frame_id(std::vector<std::uint8_t>& frame, std::uint64_t id) {
  // The request id lives only at header bytes [8, 16) — payloads never
  // embed it — so re-stamping a frame for a different id space is one
  // little-endian store.
  for (int i = 0; i < 8; ++i)
    frame[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
}
}  // namespace

/// One configured replica: a pipelined data connection owned by a
/// dedicated io thread, plus the membership flags the prober drives.
struct NpdpRouter::Upstream {
  ReplicaEndpoint ep;

  std::mutex mu;  ///< guards queue + accepting
  std::vector<std::vector<std::uint8_t>> queue;  ///< frames to forward
  /// Placements allowed. Checked under mu by place(); cleared under the
  /// same mu by the down path, which also empties the queue — so a frame
  /// can never slip into a queue that was already abandoned.
  bool accepting = false;

  net::FdGuard wakefd;  ///< kicks the io thread when the queue fills
  std::thread io;

  std::atomic<bool> connected{false};
  std::atomic<bool> in_ring{false};
  std::atomic<bool> draining{false};
  std::atomic<std::uint64_t> forwarded{0}, replies{0}, disconnects{0};

  // io-thread-only state.
  net::FdGuard fd;  ///< data connection; io thread is the sole owner
  std::vector<std::uint8_t> rbuf;
};

/// One client request in flight through the router.
struct NpdpRouter::Pending {
  EpollFrontEnd::ConnRef conn;
  std::uint64_t client_id = 0;
  std::vector<std::uint8_t> frame;  ///< router-stamped header + payload
  int attempts = 0;   ///< placements so far
  std::uint64_t key = 0;  ///< content hash (placement key)
  std::uint64_t trace_id = 0;
  bool sampled = false;
  std::string replica;  ///< where it is currently placed
  SteadyClock::time_point sent{};
};

NpdpRouter::NpdpRouter(RouterOptions opts)
    : opts_(std::move(opts)),
      fe_([&] {
        net::FrontEndOptions f = opts_.net;
        f.counter_prefix = "router";
        return f;
      }()),
      ring_(opts_.vnodes) {
  fe_.set_frame_handler(
      [this](const EpollFrontEnd::ConnPtr& c, const FrameHeader& h,
             const std::uint8_t* payload) { handle_frame(c, h, payload); });
  for (const auto& ep : opts_.replicas) {
    auto u = std::make_unique<Upstream>();
    u->ep = ep;
    upstreams_.push_back(std::move(u));
  }
}

NpdpRouter::~NpdpRouter() { stop(); }

bool NpdpRouter::start(std::string* err) {
  if (started_.exchange(true)) {
    *err = "router already started";
    return false;
  }
  if (upstreams_.empty()) {
    *err = "router needs at least one replica";
    return false;
  }
  // Probe synchronously before opening the door: the first client frame
  // meets a ring that reflects which replicas actually answer.
  probe_pass();
  for (auto& u : upstreams_) {
    u->wakefd.reset(net::make_wakefd());
    u->io = std::thread([this, up = u.get()] { upstream_io_loop(*up); });
  }
  if (!fe_.start(err)) {
    io_stop_.store(true, std::memory_order_release);
    for (auto& u : upstreams_) net::wake_signal(u->wakefd.get());
    for (auto& u : upstreams_)
      if (u->io.joinable()) u->io.join();
    return false;
  }
  prober_ = std::thread([this] { prober_loop(); });
  return true;
}

void NpdpRouter::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) return;
  // Front-end drain: stop accepting, then wait (bounded) for every
  // admitted request — the upstream io threads are still running, so
  // pending replies keep flowing back while we wait.
  fe_.stop();
  probe_stop_.store(true, std::memory_order_release);
  if (prober_.joinable()) prober_.join();
  io_stop_.store(true, std::memory_order_release);
  for (auto& u : upstreams_) net::wake_signal(u->wakefd.get());
  for (auto& u : upstreams_)
    if (u->io.joinable()) u->io.join();
  // Anything still pending has no client to answer (the reactors closed
  // every connection); drop it.
  std::lock_guard lk(pending_mu_);
  pending_.clear();
}

void NpdpRouter::handle_frame(const EpollFrontEnd::ConnPtr& c,
                              const FrameHeader& h,
                              const std::uint8_t* payload) {
  using net::MsgType;
  switch (h.type) {
    case MsgType::Solve:
    case MsgType::Fold:
    case MsgType::Parse:
    case MsgType::Chain:
    case MsgType::Bst: {
      // Decode only to learn the placement key and trace context; what
      // goes upstream is the original payload byte-for-byte under a
      // re-stamped header, so the trace context survives the hop.
      net::WireRequest w;
      std::string err;
      if (!net::decode_request_payload(h.type, h.version, h.id, payload,
                                       h.len, &w, &err)) {
        fe_.note_bad_frame();
        fe_.reply_now(c, net::encode_proto_error(
                             h.id, net::ProtoErrorCode::BadPayload, err));
        return;
      }
      const std::uint64_t rid =
          next_id_.fetch_add(1, std::memory_order_relaxed);
      Pending p;
      p.conn = c;
      p.client_id = h.id;
      p.key = serve::content_hash(w.payload);
      p.trace_id = w.trace.trace_id;
      p.sampled = w.trace.sampled;
      p.frame.reserve(net::kHeaderSize + h.len);
      net::encode_header(p.frame, h.type, rid, h.len, h.version);
      p.frame.insert(p.frame.end(), payload, payload + h.len);
      if (p.sampled) {
        // Chain markers on the router's own trace: the admission half.
        // With these (plus the reply half below) a merged client+router
        // trace carries complete chains even when the replica that did
        // the work was killed before exporting anything.
        CELLNPDP_TRACE_INSTANT("req", "decode",
                               static_cast<std::int64_t>(p.trace_id));
        CELLNPDP_TRACE_INSTANT("req", "queue",
                               static_cast<std::int64_t>(p.trace_id));
      }
      // Tenant tag passes through untouched inside the forwarded bytes;
      // count it here so a router front-end shows per-tenant demand even
      // though QoS enforcement happens on the replicas.
      if (w.tenant != 0)
        obs::metrics()
            .counter("router.tenant.forwarded{tenant=" +
                     std::to_string(w.tenant) + "}")
            .add();
      fe_.begin_async(c);
      if (!place(rid, p)) {
        ++no_replica_;
        obs::metrics().counter("router.no_replica").add();
        synthesize(p, serve::Status::RetryAfter, "no healthy replica");
      }
      return;
    }
    default:
      // The queue depth is read under pending_mu_, so only a StatsRequest
      // pays for it.
      fe_.answer_control(c, h, [this] { return stats_json(); }, [this] {
        std::lock_guard lk(pending_mu_);
        return static_cast<std::int64_t>(pending_.size());
      });
      return;
  }
}

bool NpdpRouter::place(std::uint64_t rid, Pending& p) {
  std::vector<std::string> exclude;
  // Bounded by the replica count: each miss excludes one node.
  while (exclude.size() < upstreams_.size()) {
    std::string node;
    {
      std::lock_guard lk(ring_mu_);
      node = ring_.lookup_excluding(p.key, exclude);
    }
    if (node.empty()) return false;
    Upstream* u = nullptr;
    for (auto& cand : upstreams_)
      if (cand->ep.name == node) {
        u = cand.get();
        break;
      }
    if (u == nullptr) return false;  // ring and config disagree: give up
    {
      std::lock_guard lk(u->mu);
      // accepting flips under this mutex on the down path (which also
      // clears the queue), so a frame appended here is guaranteed to be
      // seen by that cleanup — never silently stranded.
      if (!u->accepting) {
        exclude.push_back(node);
        continue;
      }
      u->queue.push_back(p.frame);
      p.replica = node;
      p.sent = SteadyClock::now();
      ++p.attempts;
      u->forwarded.fetch_add(1, std::memory_order_relaxed);
      {
        // Lock order everywhere: upstream mu, then pending_mu_. Insert
        // before the io thread can possibly send (it needs u->mu, held).
        std::lock_guard plk(pending_mu_);
        pending_[rid] = std::move(p);
      }
    }
    net::wake_signal(u->wakefd.get());
    ++forwarded_;
    obs::metrics().counter("router.forwarded").add();
    return true;
  }
  return false;
}

void NpdpRouter::synthesize(Pending& p, serve::Status st,
                            const std::string& detail) {
  net::WireResponse r;
  r.id = p.client_id;
  r.status = st;
  r.retry_after_ms =
      st == serve::Status::RetryAfter ? opts_.retry_after_hint_ms : 0;
  r.backend = "router";
  r.detail = detail;
  if (p.sampled) {
    CELLNPDP_TRACE_INSTANT("req", "respond",
                           static_cast<std::int64_t>(p.trace_id),
                           static_cast<std::int64_t>(net::wire_status(st)));
    CELLNPDP_TRACE_INSTANT("req", "encode",
                           static_cast<std::int64_t>(p.trace_id));
  }
  ++synthesized_;
  obs::metrics().counter("router.synthesized").add();
  fe_.async_reply(p.conn, net::encode_response(r));
}

void NpdpRouter::upstream_io_loop(Upstream& u) {
  obs::Tracer::instance().name_this_thread("router up " + u.ep.name);
  while (!io_stop_.load(std::memory_order_acquire)) {
    pollfd pfds[2];
    pfds[0] = {u.wakefd.get(), POLLIN, 0};
    nfds_t nf = 1;
    if (u.fd.valid()) {
      pfds[1] = {u.fd.get(), POLLIN, 0};
      nf = 2;
    }
    const int pr = ::poll(pfds, nf, 200);
    if (pr < 0 && errno != EINTR) break;
    net::wake_drain(u.wakefd.get());
    if (io_stop_.load(std::memory_order_acquire)) break;
    // Outgoing first: grab whatever place() queued.
    std::vector<std::vector<std::uint8_t>> out;
    {
      std::lock_guard lk(u.mu);
      out.swap(u.queue);
    }
    if (!out.empty() && !u.fd.valid()) {
      std::string err;
      const int fd = net::tcp_connect_timeout(
          u.ep.host, u.ep.port, opts_.connect_timeout_ms, &err);
      if (fd < 0) {
        // The pending entries for these frames are requeued by the down
        // path (they are registered under this replica's name).
        upstream_down(u, "connect failed");
        continue;
      }
      u.fd.reset(fd);
      u.connected.store(true, std::memory_order_release);
    }
    bool dead = false;
    for (const auto& frame : out) {
      if (!net::send_all(u.fd.get(), frame.data(), frame.size())) {
        dead = true;
        break;
      }
    }
    if (dead) {
      upstream_down(u, "send failed");
      continue;
    }
    // Incoming replies.
    if (nf == 2 && u.fd.valid() &&
        (pfds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      std::uint8_t buf[65536];
      for (;;) {
        const ssize_t n = ::recv(u.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
          u.rbuf.insert(u.rbuf.end(), buf, buf + n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        dead = true;  // orderly close or hard error: the replica is gone
        break;
      }
      // Parse complete frames even when the tail read hit EOF — replies
      // that made it out of the replica before it died still count.
      std::size_t off = 0;
      for (;;) {
        FrameHeader h;
        const net::HeaderParse hp = net::parse_header(
            u.rbuf.data() + off, u.rbuf.size() - off, &h);
        if (hp != net::HeaderParse::Ok ||
            u.rbuf.size() - off < net::kHeaderSize + h.len) {
          if (hp == net::HeaderParse::BadMagic) dead = true;
          break;
        }
        std::vector<std::uint8_t> frame(
            u.rbuf.begin() + static_cast<std::ptrdiff_t>(off),
            u.rbuf.begin() +
                static_cast<std::ptrdiff_t>(off + net::kHeaderSize + h.len));
        on_upstream_frame(u, h, std::move(frame));
        off += net::kHeaderSize + h.len;
      }
      if (off > 0)
        u.rbuf.erase(u.rbuf.begin(),
                     u.rbuf.begin() + static_cast<std::ptrdiff_t>(off));
      if (dead) upstream_down(u, "connection lost");
    }
  }
  u.fd.reset();
  u.connected.store(false, std::memory_order_release);
}

void NpdpRouter::upstream_down(Upstream& u, const char* why) {
  {
    std::lock_guard lk(u.mu);
    u.accepting = false;
    u.queue.clear();  // pending entries below are the source of truth
  }
  u.fd.reset();
  u.rbuf.clear();
  u.connected.store(false, std::memory_order_release);
  u.disconnects.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lk(ring_mu_);
    ring_.remove(u.ep.name);
  }
  u.in_ring.store(false, std::memory_order_release);
  ++replica_down_;
  obs::metrics().counter("router.replica_down").add();
  CELLNPDP_TRACE_INSTANT("router", why);
  // Re-place everything that was riding on this replica. The ring no
  // longer contains it, so each key falls to its clockwise successor —
  // the same replica that inherits the arc, keeping caches warm.
  std::vector<std::pair<std::uint64_t, Pending>> victims;
  {
    std::lock_guard lk(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.replica == u.ep.name) {
        victims.emplace_back(it->first, std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [rid, p] : victims) {
    if (p.attempts >= opts_.max_attempts) {
      ++exhausted_;
      obs::metrics().counter("router.exhausted").add();
      synthesize(p, serve::Status::Error,
                 "routing attempts exhausted (" +
                     std::to_string(p.attempts) + ")");
      continue;
    }
    if (place(rid, p)) {
      ++requeued_;
      obs::metrics().counter("router.requeued").add();
    } else {
      ++no_replica_;
      obs::metrics().counter("router.no_replica").add();
      synthesize(p, serve::Status::RetryAfter, "no healthy replica");
    }
  }
}

void NpdpRouter::on_upstream_frame(Upstream& u, const FrameHeader& h,
                                   std::vector<std::uint8_t> frame) {
  Pending p;
  {
    std::lock_guard lk(pending_mu_);
    auto it = pending_.find(h.id);
    if (it == pending_.end()) return;  // requeued or shut down: stale
    p = std::move(it->second);
    pending_.erase(it);
  }
  patch_frame_id(frame, p.client_id);
  u.replies.fetch_add(1, std::memory_order_relaxed);
  ++replies_;
  obs::metrics().counter("router.replies").add();
  obs::metrics().histogram("router.upstream_ns")
      .observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   SteadyClock::now() - p.sent)
                   .count());
  if (p.sampled) {
    // Reply half of the chain markers (see handle_frame). The status
    // rides in the Result payload's first u16; respond carries it as a1
    // so check-trace can demand a solve/cache event only on success.
    std::int64_t status = static_cast<std::int64_t>(serve::Status::Error);
    if (h.type == net::MsgType::Result && h.len >= 2)
      status = static_cast<std::int64_t>(
          frame[net::kHeaderSize] |
          (static_cast<std::uint16_t>(frame[net::kHeaderSize + 1]) << 8));
    const bool cached =
        status == static_cast<std::int64_t>(serve::Status::OkCached);
    const bool success =
        status == static_cast<std::int64_t>(serve::Status::Ok) ||
        status == static_cast<std::int64_t>(serve::Status::Degraded) ||
        cached;
    if (success)
      CELLNPDP_TRACE_INSTANT("req", cached ? "cache" : "solve",
                             static_cast<std::int64_t>(p.trace_id));
    CELLNPDP_TRACE_INSTANT("req", "respond",
                           static_cast<std::int64_t>(p.trace_id), status);
    CELLNPDP_TRACE_INSTANT("req", "encode",
                           static_cast<std::int64_t>(p.trace_id));
  }
  fe_.async_reply(p.conn, std::move(frame));
}

void NpdpRouter::prober_loop() {
  obs::Tracer::instance().name_this_thread("router prober");
  while (!probe_stop_.load(std::memory_order_acquire)) {
    const auto t0 = SteadyClock::now();
    probe_pass();
    // Sleep in small steps so stop() is never stuck behind the interval.
    while (!probe_stop_.load(std::memory_order_acquire) &&
           SteadyClock::now() - t0 <
               std::chrono::milliseconds(opts_.probe_interval_ms))
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::size_t NpdpRouter::probe_pass() {
  for (auto& u : upstreams_) {
    // A fresh client per probe keeps the prober independent of the data
    // connection: it measures "does the replica answer a stats frame",
    // not "is our socket still alive".
    net::NpdpClient cli;
    std::string err;
    bool ok = false;
    bool breaker_open = false;
    if (cli.connect(u->ep.host, u->ep.port, &err, opts_.probe_timeout_ms)) {
      net::WireStats ws;
      if (cli.stats_snapshot(&ws, opts_.probe_timeout_ms, &err) ==
          net::NpdpClient::RecvStatus::Ok) {
        ok = true;
        for (const auto& b : ws.breakers)
          if (b.state == kBreakerOpenWire) breaker_open = true;
      }
    }
    if (!ok) {
      ++probe_failures_;
      obs::metrics().counter("router.probe_failures").add();
      // Unreachable: out of the ring, no new placements. The in-flight
      // requeue happens on the data path, which notices the broken
      // connection itself (and may already have).
      {
        std::lock_guard lk(u->mu);
        u->accepting = false;
      }
      {
        std::lock_guard lk(ring_mu_);
        ring_.remove(u->ep.name);
      }
      u->in_ring.store(false, std::memory_order_release);
      u->draining.store(false, std::memory_order_release);
    } else if (breaker_open) {
      // Alive but degraded: drain. Placements stop, the queue and the
      // connection stay — in-flight requests finish normally.
      {
        std::lock_guard lk(u->mu);
        u->accepting = false;
      }
      {
        std::lock_guard lk(ring_mu_);
        ring_.remove(u->ep.name);
      }
      u->in_ring.store(false, std::memory_order_release);
      u->draining.store(true, std::memory_order_release);
    } else {
      {
        std::lock_guard lk(u->mu);
        u->accepting = true;
      }
      {
        std::lock_guard lk(ring_mu_);
        ring_.add(u->ep.name);
      }
      u->in_ring.store(true, std::memory_order_release);
      u->draining.store(false, std::memory_order_release);
    }
  }
  std::size_t healthy;
  {
    std::lock_guard lk(ring_mu_);
    healthy = ring_.size();
  }
  obs::metrics().gauge("router.healthy_replicas")
      .set(static_cast<double>(healthy));
  return healthy;
}

RouterStats NpdpRouter::stats() const {
  RouterStats s;
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  s.replies = replies_.load(std::memory_order_relaxed);
  s.requeued = requeued_.load(std::memory_order_relaxed);
  s.synthesized = synthesized_.load(std::memory_order_relaxed);
  s.no_replica = no_replica_.load(std::memory_order_relaxed);
  s.exhausted = exhausted_.load(std::memory_order_relaxed);
  s.replica_down = replica_down_.load(std::memory_order_relaxed);
  s.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  {
    std::lock_guard lk(pending_mu_);
    s.pending = pending_.size();
  }
  {
    std::lock_guard lk(ring_mu_);
    s.healthy = ring_.size();
  }
  return s;
}

std::vector<ReplicaHealth> NpdpRouter::health() const {
  std::vector<ReplicaHealth> out;
  out.reserve(upstreams_.size());
  for (const auto& u : upstreams_) {
    ReplicaHealth h;
    h.name = u->ep.name;
    h.in_ring = u->in_ring.load(std::memory_order_acquire);
    h.draining = u->draining.load(std::memory_order_acquire);
    h.connected = u->connected.load(std::memory_order_acquire);
    h.forwarded = u->forwarded.load(std::memory_order_relaxed);
    h.replies = u->replies.load(std::memory_order_relaxed);
    h.disconnects = u->disconnects.load(std::memory_order_relaxed);
    out.push_back(std::move(h));
  }
  return out;
}

std::string NpdpRouter::stats_json() const {
  const RouterStats rs = stats();
  const net::FrontEndStats fs = fe_.stats();
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("router").begin_object();
  w.kv("forwarded", static_cast<std::int64_t>(rs.forwarded));
  w.kv("replies", static_cast<std::int64_t>(rs.replies));
  w.kv("requeued", static_cast<std::int64_t>(rs.requeued));
  w.kv("synthesized", static_cast<std::int64_t>(rs.synthesized));
  w.kv("no_replica", static_cast<std::int64_t>(rs.no_replica));
  w.kv("exhausted", static_cast<std::int64_t>(rs.exhausted));
  w.kv("replica_down", static_cast<std::int64_t>(rs.replica_down));
  w.kv("probe_failures", static_cast<std::int64_t>(rs.probe_failures));
  w.kv("pending", static_cast<std::int64_t>(rs.pending));
  w.kv("healthy", static_cast<std::int64_t>(rs.healthy));
  w.end_object();
  w.key("net").begin_object();
  w.kv("accepted", static_cast<std::int64_t>(fs.accepted));
  w.kv("active_conns", static_cast<std::int64_t>(fs.active_conns));
  w.kv("disconnects", static_cast<std::int64_t>(fs.disconnects));
  w.kv("frames_in", static_cast<std::int64_t>(fs.frames_in));
  w.kv("responses", static_cast<std::int64_t>(fs.responses));
  w.kv("frames_bad", static_cast<std::int64_t>(fs.frames_bad));
  w.kv("dropped_responses",
       static_cast<std::int64_t>(fs.dropped_responses));
  w.end_object();
  w.key("replicas").begin_array();
  for (const auto& h : health()) {
    w.begin_object();
    w.kv("name", h.name);
    w.kv("in_ring", h.in_ring);
    w.kv("draining", h.draining);
    w.kv("connected", h.connected);
    w.kv("forwarded", static_cast<std::int64_t>(h.forwarded));
    w.kv("replies", static_cast<std::int64_t>(h.replies));
    w.kv("disconnects", static_cast<std::int64_t>(h.disconnects));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

}  // namespace cellnpdp::router

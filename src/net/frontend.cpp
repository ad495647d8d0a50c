#include "net/frontend.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>

#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/circuit_breaker.hpp"

namespace cellnpdp::net {

namespace {
using SteadyClock = std::chrono::steady_clock;
}

/// Per-connection state. Buffers are reactor-thread-only except the
/// outbox, which any thread may append to under out_mu.
struct EpollFrontEnd::Conn {
  int fd = -1;
  int reactor = 0;
  std::vector<std::uint8_t> rbuf;
  std::vector<std::uint8_t> wbuf;  ///< bytes being written; reactor only
  std::size_t woff = 0;

  std::mutex out_mu;
  std::vector<std::uint8_t> outbox;  ///< completed frames awaiting a writer
  bool enqueue_closed = false;  ///< set at close: further responses drop

  /// Requests handed to the host and not yet answered (begin_async /
  /// async_reply pairs).
  std::atomic<int> inflight{0};

  // Reactor-thread-only flags.
  bool close_after_flush = false;  ///< close once outbox+wbuf hit the wire
  bool read_eof = false;           ///< peer half-closed; stop reading
  bool epoll_out = false;          ///< EPOLLOUT currently registered
  SteadyClock::time_point last_rx{};
};

struct EpollFrontEnd::Reactor {
  int idx = 0;
  FdGuard epfd;
  FdGuard wakefd;
  std::thread thr;
  /// Connections owned by this reactor; touched only by its thread.
  std::unordered_map<int, ConnPtr> conns;
  std::mutex mu;  ///< guards incoming + ready
  std::vector<ConnPtr> incoming;  ///< from the acceptor
  std::vector<ConnRef> ready;     ///< have outbox bytes
};

EpollFrontEnd::EpollFrontEnd(FrontEndOptions opts) : opts_(std::move(opts)) {}

EpollFrontEnd::~EpollFrontEnd() { stop(); }

std::string EpollFrontEnd::cname(const char* suffix) const {
  return opts_.counter_prefix + "." + suffix;
}

bool EpollFrontEnd::start(std::string* err) {
  if (started_.exchange(true)) {
    *err = "front-end already started";
    return false;
  }
  if (!handler_) {
    *err = "front-end has no frame handler";
    return false;
  }
  listen_fd_ = tcp_listen(opts_.host, opts_.port, err);
  if (listen_fd_ < 0) return false;
  port_ = local_port(listen_fd_);
  accept_wake_ = make_wakefd();
  const int n_reactors = opts_.reactors < 1 ? 1 : opts_.reactors;
  for (int i = 0; i < n_reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->idx = i;
    r->epfd.reset(::epoll_create1(EPOLL_CLOEXEC));
    r->wakefd.reset(make_wakefd());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wakefd.get();
    ::epoll_ctl(r->epfd.get(), EPOLL_CTL_ADD, r->wakefd.get(), &ev);
    reactors_.push_back(std::move(r));
  }
  for (auto& r : reactors_)
    r->thr = std::thread([this, rp = r.get()] { reactor_loop(*rp); });
  acceptor_ = std::thread([this] { acceptor_loop(); });
  return true;
}

void EpollFrontEnd::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) return;
  // 1. Stop accepting: no new connections join the drain.
  accept_stop_.store(true, std::memory_order_release);
  wake_signal(accept_wake_);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(accept_wake_);
  accept_wake_ = -1;
  // 2. Drain the host pipeline: every admitted request gets its terminal
  //    response, and each async_reply lands in a connection outbox and
  //    wakes its reactor — which is still running, so sockets keep
  //    draining concurrently with this call.
  if (drain_hook_) drain_hook_();
  // 3. Wait (bounded) until every computed response reached a socket:
  //    nothing left in flight, nothing left in outboxes/wbufs.
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(opts_.drain_timeout_ms);
  while (SteadyClock::now() < deadline) {
    if (inflight_total_.load(std::memory_order_acquire) == 0 &&
        out_pending_bytes_.load(std::memory_order_acquire) == 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // 4. Take the reactors down; their loops close remaining connections.
  reactor_stop_.store(true, std::memory_order_release);
  for (auto& r : reactors_) wake_signal(r->wakefd.get());
  for (auto& r : reactors_)
    if (r->thr.joinable()) r->thr.join();
}

void EpollFrontEnd::acceptor_loop() {
  obs::Tracer::instance().name_this_thread(opts_.counter_prefix +
                                           " acceptor");
  FdGuard epfd(::epoll_create1(EPOLL_CLOEXEC));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epfd.get(), EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_;
  ::epoll_ctl(epfd.get(), EPOLL_CTL_ADD, accept_wake_, &ev);
  epoll_event evs[8];
  while (!accept_stop_.load(std::memory_order_acquire)) {
    const int nev = ::epoll_wait(epfd.get(), evs, 8, 500);
    if (nev < 0 && errno != EINTR) break;
    for (int i = 0; i < nev; ++i) {
      if (evs[i].data.fd != listen_fd_) continue;  // wake: loop re-checks
      for (;;) {
        const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                  SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) break;  // EAGAIN (or transient): wait for next event
        const int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ++accepted_;
        obs::metrics().counter(cname("accepted")).add();
        auto c = std::make_shared<Conn>();
        c->fd = cfd;
        // Pin by fd hash: a connection's events always land on the same
        // reactor, so its buffers need no locking.
        c->reactor = static_cast<int>(
            static_cast<unsigned>(cfd) % reactors_.size());
        Reactor& r = *reactors_[static_cast<std::size_t>(c->reactor)];
        {
          std::lock_guard lk(r.mu);
          r.incoming.push_back(std::move(c));
        }
        wake_signal(r.wakefd.get());
      }
    }
  }
}

void EpollFrontEnd::adopt_incoming(Reactor& r) {
  std::vector<ConnPtr> fresh;
  {
    std::lock_guard lk(r.mu);
    fresh.swap(r.incoming);
  }
  for (auto& c : fresh) {
    c->last_rx = SteadyClock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c->fd;
    if (::epoll_ctl(r.epfd.get(), EPOLL_CTL_ADD, c->fd, &ev) != 0) {
      ::close(c->fd);
      continue;
    }
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().gauge(cname("active_conns"))
        .set(double(active_conns_.load(std::memory_order_relaxed)));
    r.conns.emplace(c->fd, std::move(c));
  }
}

void EpollFrontEnd::reactor_loop(Reactor& r) {
  obs::Tracer::instance().name_this_thread(opts_.counter_prefix +
                                           " reactor " + std::to_string(r.idx));
  epoll_event evs[64];
  auto last_sweep = SteadyClock::now();
  while (!reactor_stop_.load(std::memory_order_acquire)) {
    const int nev = ::epoll_wait(r.epfd.get(), evs, 64, 50);
    if (nev < 0 && errno != EINTR) break;
    adopt_incoming(r);
    // Connections whose outbox got bytes since the last pass.
    std::vector<ConnRef> ready;
    {
      std::lock_guard lk(r.mu);
      ready.swap(r.ready);
    }
    for (auto& w : ready)
      if (auto c = w.lock(); c != nullptr && c->fd >= 0) pump_out(r, c);
    for (int i = 0; i < (nev > 0 ? nev : 0); ++i) {
      const int fd = evs[i].data.fd;
      if (fd == r.wakefd.get()) {
        wake_drain(fd);
        continue;
      }
      auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;  // closed earlier in this batch
      ConnPtr c = it->second;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(r, c);
        continue;
      }
      if (evs[i].events & EPOLLIN) on_readable(r, c);
      if (c->fd >= 0 && (evs[i].events & EPOLLOUT)) pump_out(r, c);
    }
    const auto now = SteadyClock::now();
    if (opts_.idle_timeout_ms > 0 &&
        now - last_sweep > std::chrono::milliseconds(
                               std::max<std::int64_t>(
                                   25, opts_.idle_timeout_ms / 4))) {
      last_sweep = now;
      sweep_idle(r);
    }
  }
  // Shutdown: close whatever is left (drain already flushed the rest).
  std::vector<ConnPtr> leftovers;
  leftovers.reserve(r.conns.size());
  for (auto& [fd, c] : r.conns) leftovers.push_back(c);
  for (auto& c : leftovers) close_conn(r, c);
}

void EpollFrontEnd::close_conn(Reactor& r, const ConnPtr& c) {
  if (c->fd < 0) return;
  {
    // Stop accepting responses and return the unwritten bytes to the
    // drain accounting, or stop() would wait on bytes nobody can send.
    std::lock_guard lk(c->out_mu);
    c->enqueue_closed = true;
    const std::int64_t pending =
        static_cast<std::int64_t>(c->outbox.size()) +
        static_cast<std::int64_t>(c->wbuf.size() - c->woff);
    if (pending > 0)
      out_pending_bytes_.fetch_sub(pending, std::memory_order_acq_rel);
    c->outbox.clear();
  }
  ::epoll_ctl(r.epfd.get(), EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  r.conns.erase(c->fd);
  c->fd = -1;
  ++disconnects_;
  obs::metrics().counter(cname("disconnects")).add();
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  obs::metrics().gauge(cname("active_conns"))
      .set(double(active_conns_.load(std::memory_order_relaxed)));
}

void EpollFrontEnd::on_readable(Reactor& r, const ConnPtr& c) {
  if (c->read_eof) return;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c->fd, buf, sizeof buf, 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      obs::metrics().counter(cname("bytes_in")).add(n);
      c->last_rx = SteadyClock::now();
      if (!c->close_after_flush)
        c->rbuf.insert(c->rbuf.end(), buf, buf + n);
      // A dying connection's bytes are read and discarded, keeping the
      // socket from signalling readability forever.
      continue;
    }
    if (n == 0) {
      c->read_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(r, c);
    return;
  }
  // Frames that arrived before a FIN are still honoured (a client may
  // pipeline requests, shutdown its write side, and read the replies),
  // so parse *before* deciding what the connection still owes.
  if (c->fd >= 0 && !c->close_after_flush) parse_frames(r, c);
  if (c->fd < 0 || !c->read_eof) return;
  // Peer finished sending. With nothing owed, close now; otherwise
  // finish computing + flushing first (half-close drain), with EPOLLIN
  // dropped so the EOF doesn't spin the loop.
  c->close_after_flush = true;
  bool owes;
  {
    std::lock_guard lk(c->out_mu);
    owes = !c->outbox.empty() || c->wbuf.size() != c->woff ||
           c->inflight.load(std::memory_order_acquire) > 0;
  }
  if (!owes) {
    close_conn(r, c);
    return;
  }
  epoll_event ev{};
  ev.events = c->epoll_out ? static_cast<std::uint32_t>(EPOLLOUT) : 0u;
  ev.data.fd = c->fd;
  ::epoll_ctl(r.epfd.get(), EPOLL_CTL_MOD, c->fd, &ev);
}

void EpollFrontEnd::parse_frames(Reactor& r, const ConnPtr& c) {
  std::size_t off = 0;
  while (c->fd >= 0 && !c->close_after_flush) {
    FrameHeader h;
    const HeaderParse hp =
        parse_header(c->rbuf.data() + off, c->rbuf.size() - off, &h);
    if (hp == HeaderParse::NeedMore) break;
    if (hp == HeaderParse::BadMagic) {
      // The stream is unsynchronized: no frame boundary can be trusted,
      // so there is no id to address an error to. Disconnect.
      ++frames_bad_;
      obs::metrics().counter(cname("frames_bad")).add();
      close_conn(r, c);
      return;
    }
    if (h.version < kMinVersion || h.version > kVersion) {
      ++frames_bad_;
      ++protocol_errors_;
      obs::metrics().counter(cname("frames_bad")).add();
      enqueue_out(c, encode_proto_error(
                         h.id, ProtoErrorCode::BadVersion,
                         "server speaks versions " +
                             std::to_string(kMinVersion) + ".." +
                             std::to_string(kVersion)));
      c->close_after_flush = true;  // later frames may not even be frames
      break;
    }
    if (h.len > opts_.max_frame) {
      ++frames_bad_;
      ++protocol_errors_;
      obs::metrics().counter(cname("frames_bad")).add();
      enqueue_out(c, encode_proto_error(
                         h.id, ProtoErrorCode::FrameTooLarge,
                         "payload " + std::to_string(h.len) + " > cap " +
                             std::to_string(opts_.max_frame)));
      // Skipping h.len bytes would mean buffering what we just refused
      // to buffer; disconnect after the error flushes.
      c->close_after_flush = true;
      break;
    }
    if (c->rbuf.size() - off < kHeaderSize + h.len) break;  // partial frame
    ++frames_in_;
    handler_(c, h, c->rbuf.data() + off + kHeaderSize);
    off += kHeaderSize + h.len;
  }
  if (off > 0 && c->fd >= 0)
    c->rbuf.erase(c->rbuf.begin(),
                  c->rbuf.begin() + static_cast<std::ptrdiff_t>(off));
  if (c->close_after_flush) {
    c->rbuf.clear();
    if (c->fd >= 0) pump_out(r, c);  // may close immediately if all flushed
  }
}

void EpollFrontEnd::reply_now(const ConnPtr& c,
                              std::vector<std::uint8_t> frame) {
  enqueue_out(c, std::move(frame));
  Reactor& r = *reactors_[static_cast<std::size_t>(c->reactor)];
  pump_out(r, c);
}

void EpollFrontEnd::begin_async(const ConnPtr& c) {
  c->inflight.fetch_add(1, std::memory_order_acq_rel);
  inflight_total_.fetch_add(1, std::memory_order_acq_rel);
}

bool EpollFrontEnd::async_reply(const ConnRef& wc,
                                std::vector<std::uint8_t> frame) {
  bool delivered = false;
  if (auto c = wc.lock()) {
    c->inflight.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard lk(c->out_mu);
      if (!c->enqueue_closed) {
        out_pending_bytes_.fetch_add(static_cast<std::int64_t>(frame.size()),
                                     std::memory_order_acq_rel);
        c->outbox.insert(c->outbox.end(), frame.begin(), frame.end());
        delivered = true;
      }
    }
    if (delivered) {
      ++responses_;
      Reactor& owner = *reactors_[static_cast<std::size_t>(c->reactor)];
      {
        std::lock_guard lk(owner.mu);
        owner.ready.push_back(wc);
      }
      wake_signal(owner.wakefd.get());
    }
  }
  if (!delivered) {
    ++dropped_responses_;
    obs::metrics().counter(cname("dropped_responses")).add();
  }
  inflight_total_.fetch_sub(1, std::memory_order_acq_rel);
  return delivered;
}

void EpollFrontEnd::note_bad_frame() {
  ++frames_bad_;
  ++protocol_errors_;
  obs::metrics().counter(cname("frames_bad")).add();
}

void EpollFrontEnd::answer_control(
    const ConnPtr& c, const FrameHeader& h,
    const std::function<std::string()>& stats_json,
    const std::function<std::int64_t()>& queue_depth) {
  switch (h.type) {
    case MsgType::Ping:
      reply_now(c, encode_pong(h.id));
      return;
    case MsgType::Stats:
      reply_now(c, encode_stats_text(h.id, stats_json()));
      return;
    case MsgType::StatsRequest: {
      // The breaker board rides in every snapshot: the router's prober
      // drains a replica whose board shows an open breaker.
      WireStats ws;
      ws.metrics = obs::metrics().snapshot();
      for (const auto& row : resilience::breakers().snapshot()) {
        WireBreaker b;
        b.name = row.name;
        b.state = static_cast<std::uint8_t>(row.state);
        b.failure_rate = row.failure_rate;
        b.retry_after_ms = row.retry_after_ms;
        ws.breakers.push_back(std::move(b));
      }
      ws.queue_depth = queue_depth();
      reply_now(c, encode_stats_response(h.id, ws));
      return;
    }
    default:
      note_bad_frame();
      reply_now(c, encode_proto_error(
                       h.id, ProtoErrorCode::UnknownType,
                       "unknown message type " +
                           std::to_string(static_cast<unsigned>(h.type))));
      return;
  }
}

void EpollFrontEnd::enqueue_out(const ConnPtr& c,
                                std::vector<std::uint8_t> frame) {
  std::lock_guard lk(c->out_mu);
  if (c->enqueue_closed) return;
  out_pending_bytes_.fetch_add(static_cast<std::int64_t>(frame.size()),
                               std::memory_order_acq_rel);
  c->outbox.insert(c->outbox.end(), frame.begin(), frame.end());
}

void EpollFrontEnd::pump_out(Reactor& r, const ConnPtr& c) {
  if (c->fd < 0) return;
  {
    std::lock_guard lk(c->out_mu);
    if (!c->outbox.empty()) {
      // Compact first so wbuf never grows unboundedly from stale bytes.
      if (c->woff > 0) {
        c->wbuf.erase(c->wbuf.begin(),
                      c->wbuf.begin() + static_cast<std::ptrdiff_t>(c->woff));
        c->woff = 0;
      }
      c->wbuf.insert(c->wbuf.end(), c->outbox.begin(), c->outbox.end());
      c->outbox.clear();
    }
  }
  while (c->woff < c->wbuf.size()) {
    const ssize_t n = ::send(c->fd, c->wbuf.data() + c->woff,
                             c->wbuf.size() - c->woff, MSG_NOSIGNAL);
    if (n > 0) {
      c->woff += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
      obs::metrics().counter(cname("bytes_out")).add(n);
      out_pending_bytes_.fetch_sub(n, std::memory_order_acq_rel);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c->epoll_out) {
        c->epoll_out = true;
        epoll_event ev{};
        ev.events = (c->read_eof ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                    static_cast<std::uint32_t>(EPOLLOUT);
        ev.data.fd = c->fd;
        ::epoll_ctl(r.epfd.get(), EPOLL_CTL_MOD, c->fd, &ev);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(r, c);  // EPIPE/ECONNRESET: peer is gone
    return;
  }
  c->wbuf.clear();
  c->woff = 0;
  if (c->epoll_out) {
    c->epoll_out = false;
    epoll_event ev{};
    ev.events = c->read_eof ? 0u : static_cast<std::uint32_t>(EPOLLIN);
    ev.data.fd = c->fd;
    ::epoll_ctl(r.epfd.get(), EPOLL_CTL_MOD, c->fd, &ev);
  }
  if (c->close_after_flush) {
    bool done;
    {
      std::lock_guard lk(c->out_mu);
      done = c->outbox.empty() &&
             c->inflight.load(std::memory_order_acquire) == 0;
    }
    if (done) close_conn(r, c);
  }
}

void EpollFrontEnd::sweep_idle(Reactor& r) {
  const auto now = SteadyClock::now();
  const auto limit = std::chrono::milliseconds(opts_.idle_timeout_ms);
  std::vector<ConnPtr> victims;
  for (auto& [fd, c] : r.conns) {
    if (now - c->last_rx <= limit) continue;
    if (c->inflight.load(std::memory_order_acquire) > 0) continue;
    bool pending;
    {
      std::lock_guard lk(c->out_mu);
      pending = !c->outbox.empty() || c->wbuf.size() != c->woff;
    }
    // A connection mid-write isn't idle, however long it has been silent
    // — it is a slow *reader*, bounded separately by the drain timeout.
    if (pending) continue;
    victims.push_back(c);
  }
  for (auto& c : victims) close_conn(r, c);
}

FrontEndStats EpollFrontEnd::stats() const {
  FrontEndStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.frames_bad = frames_bad_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.dropped_responses = dropped_responses_.load(std::memory_order_relaxed);
  s.active_conns = static_cast<std::size_t>(
      std::max<std::int64_t>(0, active_conns_.load(std::memory_order_relaxed)));
  return s;
}

std::unique_ptr<EpollFrontEnd> start_stats_port(const std::string& host,
                                                std::uint16_t port,
                                                std::string* err) {
  auto fe = std::make_unique<EpollFrontEnd>(
      FrontEndOptions{.host = host, .port = port, .reactors = 1});
  fe->set_frame_handler([self = fe.get()](const EpollFrontEnd::ConnPtr& c,
                                          const FrameHeader& h,
                                          const std::uint8_t*) {
    self->answer_control(
        c, h,
        [] {
          std::ostringstream os;
          obs::metrics().write_json(os << "{\"metrics\":");
          return os.str() + "}";
        },
        [] { return std::int64_t{0}; });
  });
  if (!fe->start(err)) return nullptr;
  return fe;
}

}  // namespace cellnpdp::net

// The serve-miss and serve-hit workloads: a net-serve replica (or a
// net-route router in front of two replicas) hosted in this process on
// loopback ports, driven by up to four client connections, first in a
// closed loop and then in an open loop at a fixed rate. Every reply is
// checked against what the library computes in-process for the same
// payload.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "apps/cyk/cyk.hpp"
#include "apps/matrix_chain/matrix_chain.hpp"
#include "apps/optimal_bst/optimal_bst.hpp"
#include "apps/zuker/fold.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "core/solve.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "serve/solver_pool.hpp"
#include "solves.hpp"

namespace perfbench {

namespace {

using namespace cellnpdp;
using serve::Payload;
using Reply = net::NpdpClient::Reply;
using RecvStatus = net::NpdpClient::RecvStatus;

/// Open-loop offered load, requests per second over all connections:
/// about half of each workload's closed-loop capacity on a 4-core host.
constexpr double kMissRate = 600;
constexpr double kHitRate = 15000;
constexpr int kPoolPerKind = 20;          ///< serve-hit: 100 computations
constexpr std::size_t kReplicaCache = 80;  ///< fits 100 in two, not in one
constexpr int kReplyTimeoutMs = 10000;
constexpr int kSetups = 9;
/// How long the solve payloads are re-run in-process on all three drivers:
/// the byte-identity gate and the samples of solve_s & co. Distributed
/// solves are capped: each opens a loopback mesh, and every closed
/// connection holds an ephemeral port in TIME_WAIT for a minute, so
/// back-to-back runs would otherwise exhaust the port range.
constexpr double kGateS = 4.0;
constexpr std::size_t kGateDist = 200;
constexpr std::uint32_t kPeers = 3;
constexpr int kPings = 400;
constexpr int kHopPairs = 300;
constexpr std::int64_t kSlipNs = 1'000'000;  ///< a send this late slipped

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 r(a ^ (b * 0x9E3779B97F4A7C15ull));
  return r.next_u64();
}

/// A random balanced parenthesis string of `len` characters.
std::string dyck_word(index_t len, std::uint64_t seed) {
  SplitMix64 rng(seed);
  index_t left = len / 2, open = 0;
  std::string s;
  while (left > 0 || open > 0) {
    if (left > 0 && (open == 0 || rng.next_below(2) == 0)) {
      s += '(';
      --left;
      ++open;
    } else {
      s += ')';
      --open;
    }
  }
  return s;
}

/// One request of kind k (solve, fold, parse, chain, bst) at `size`.
Payload make_payload(int kind, std::uint64_t seed, index_t size) {
  switch (kind) {
    case 0: {
      serve::SolveSpec s;
      s.n = size;
      s.seed = seed;
      s.block_side = size / 3;  // three memory blocks per side
      s.kernel = KernelKind::Native;
      return s;
    }
    case 1: {
      serve::FoldSpec f;
      f.random_n = size;
      f.seed = seed;
      return f;
    }
    case 2: {
      serve::ParseSpec p;
      p.grammar = serve::ParseSpec::GrammarKind::Parens;
      p.text = dyck_word(size, seed);
      return p;
    }
    case 3: {
      serve::ChainSpec c;
      c.n = size;
      c.seed = seed;
      return c;
    }
    default: {
      serve::BstSpec b;
      b.keys = size;
      b.seed = seed;
      return b;
    }
  }
}

/// What the library computes in-process for `p`: the value a correct
/// reply must carry, bit for bit.
double reference_value(const Payload& p) {
  if (const auto* s = std::get_if<serve::SolveSpec>(&p)) {
    Table t(s->n, s->block_side);
    ExecutionContext ctx;
    ctx.tuning.block_side = s->block_side;
    ctx.tuning.kernel = s->kernel;
    solve_blocked_into(t, seeded_instance(s->n, s->seed), ctx);
    return double(t.at(0, s->n - 1));
  }
  if (const auto* f = std::get_if<serve::FoldSpec>(&p)) {
    zuker::ZukerFolder folder;
    return double(folder.fold(zuker::random_sequence(f->random_n, f->seed)).mfe);
  }
  if (const auto* q = std::get_if<serve::ParseSpec>(&p)) {
    cyk::CykParser parser(cyk::balanced_parens_grammar());
    const auto r = parser.parse(cyk::tokens_from_string(q->text, "()"));
    return r.accepted() ? double(r.cost) : -1.0;
  }
  ExecutionContext ctx;
  if (const auto* c = std::get_if<serve::ChainSpec>(&p)) {
    MatrixChainResult<float> r;
    solve_matrix_chain(serve::chain_dims(*c), ctx, &r);
    return double(r.cost);
  }
  float cost = 0;
  solve_optimal_bst(serve::bst_data(std::get<serve::BstSpec>(p)), ctx, &cost);
  return double(cost);
}

/// One request as the client saw it. Times are steady-clock ns.
struct Sample {
  Payload payload;
  bool replied = false;  ///< a Result frame with our id came back
  serve::Status status = serve::Status::Error;
  double value = 0;
  std::int64_t queue_ns = 0, solve_ns = 0, total_ns = 0;
  std::int64_t scheduled = 0, sent = 0, received = 0;
  bool traced = false;

  double rtt_ms() const { return double(received - sent) * 1e-6; }
  double latency_ms() const { return double(received - scheduled) * 1e-6; }
  bool ok() const { return replied && serve::is_success(status); }
};

void take_result(const Reply& rep, Sample* s) {
  s->received = now_ns();
  if (rep.kind != Reply::Kind::Result) return;
  s->replied = true;
  s->status = rep.result.status;
  s->value = rep.result.value;
  s->queue_ns = rep.result.queue_ns;
  s->solve_ns = rep.result.solve_ns;
  s->total_ns = rep.result.total_ns;
}

/// Per-request layer spans: the server's stages (from the reply's
/// queue/solve/total ns) laid out from the send instant, then the wire
/// and client time as the rest of the round trip.
void record_request_spans(const Sample& s, std::uint64_t req) {
  SpanLog& log = spans();
  if (!log.enabled() || !s.ok()) return;
  const std::int64_t rtt = s.received - s.sent;
  const std::int64_t server = std::clamp<std::int64_t>(s.total_ns, 0, rtt);
  const std::int64_t queue = std::clamp<std::int64_t>(s.queue_ns, 0, server);
  const std::int64_t solve =
      std::clamp<std::int64_t>(s.solve_ns, 0, server - queue);
  const std::uint64_t root =
      log.record("client.request", s.sent, s.received, 0, req);
  std::int64_t t = s.sent;
  log.record("serve.queue", t, t + queue, root, req);
  t += queue;
  log.record("serve.solve", t, t + solve, root, req);
  t += solve;
  log.record("serve.respond", t, s.sent + server, root, req);
  log.record("net.wire", s.sent + server, s.received, root, req);
}

/// Where a connection's payloads come from: fresh unique computations
/// (serve-miss) or draws from a fixed pool (serve-hit).
struct Source {
  const std::vector<Payload>* pool = nullptr;
  index_t size = 48;
  SplitMix64 rng{1};

  Payload next() {
    if (pool != nullptr) return (*pool)[rng.next_below(pool->size())];
    const int kind = static_cast<int>(rng.next_below(5));
    return make_payload(kind, rng.next_u64(), size);
  }
};

/// The system under test: one replica, or a router over two replicas.
struct Fleet {
  std::vector<std::unique_ptr<net::NpdpServer>> replicas;
  std::unique_ptr<router::NpdpRouter> router;
  std::uint16_t front_port = 0;
  std::vector<net::NpdpClient> clients;  ///< the load connections

  ~Fleet() {
    for (auto& c : clients) c.close();
    if (router) router->stop();
    for (auto& r : replicas) r->stop();
  }

  serve::ServiceStats service_total() const {
    serve::ServiceStats t;
    for (const auto& r : replicas) {
      const serve::ServiceStats s = r->service().stats();
      t.completed += s.completed;
      t.cache_hits += s.cache_hits;
      t.cache_misses += s.cache_misses;
      t.batches += s.batches;
      t.arena_reuses += s.arena_reuses;
      t.arena_allocations += s.arena_allocations;
    }
    return t;
  }
  net::ServerStats server_total() const {
    net::ServerStats t;
    for (const auto& r : replicas) {
      const net::ServerStats s = r->stats();
      t.bytes_in += s.bytes_in;
      t.bytes_out += s.bytes_out;
      t.responses += s.responses;
    }
    return t;
  }
};

bool start_fleet(bool hit, int conns, Fleet* f, std::string* err) {
  const int n_replicas = hit ? 2 : 1;
  for (int i = 0; i < n_replicas; ++i) {
    net::ServerOptions so;
    serve::ServiceOptions svc;
    if (hit) svc.cache_capacity = kReplicaCache;
    f->replicas.push_back(std::make_unique<net::NpdpServer>(so, svc));
    if (!f->replicas.back()->start(err)) return false;
  }
  f->front_port = f->replicas.front()->port();
  if (hit) {
    router::RouterOptions ro;
    for (int i = 0; i < n_replicas; ++i)
      ro.replicas.push_back(
          {"r" + std::to_string(i), "127.0.0.1", f->replicas[i]->port()});
    f->router = std::make_unique<router::NpdpRouter>(ro);
    if (!f->router->start(err)) return false;
    f->front_port = f->router->port();
  }
  f->clients.resize(static_cast<std::size_t>(conns));
  for (auto& c : f->clients) {
    if (!c.connect("127.0.0.1", f->front_port, err, 2000)) return false;
    if (c.ping(1, kReplyTimeoutMs, err) != RecvStatus::Ok) return false;
  }
  return true;
}

/// Sends `work` pipelined over the fleet's connections and waits for
/// every reply (the serve-hit cache warm-up).
void send_pipelined(Fleet& f, const std::vector<Payload>& work,
                    std::vector<Sample>* out) {
  const std::size_t conns = f.clients.size();
  std::vector<std::vector<Sample>> per(conns);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c)
    threads.emplace_back([&, c] {
      net::NpdpClient& cli = f.clients[c];
      std::string err;
      std::vector<Sample>& mine = per[c];
      for (std::size_t i = c; i < work.size(); i += conns) {
        Sample s;
        s.payload = work[i];
        net::WireRequest w;
        w.id = mine.size() + 1;
        w.payload = s.payload;
        s.scheduled = s.sent = now_ns();
        if (!cli.send_frame(net::encode_request(w), &err)) break;
        mine.push_back(std::move(s));
      }
      for (std::size_t got = 0; got < mine.size(); ++got) {
        Reply rep;
        if (cli.recv_reply(&rep, kReplyTimeoutMs, &err) != RecvStatus::Ok)
          break;
        if (rep.id >= 1 && rep.id <= mine.size())
          take_result(rep, &mine[rep.id - 1]);
      }
    });
  for (auto& t : threads) t.join();
  for (auto& v : per)
    for (auto& s : v) out->push_back(std::move(s));
}

void closed_loop(net::NpdpClient& cli, Source src, std::int64_t t_end,
                 std::vector<Sample>* out) {
  std::string err;
  std::uint64_t id = 0;
  while (cli.connected() && now_ns() < t_end) {
    Sample s;
    s.payload = src.next();
    net::WireRequest w;
    w.id = ++id;
    w.payload = s.payload;
    const std::vector<std::uint8_t> frame = net::encode_request(w);
    s.scheduled = s.sent = now_ns();
    bool alive = cli.send_frame(frame, &err);
    if (alive) {
      Reply rep;
      alive = cli.recv_reply(&rep, kReplyTimeoutMs, &err) == RecvStatus::Ok &&
              rep.id == w.id;
      if (alive) take_result(rep, &s);
    }
    out->push_back(std::move(s));
    if (!alive) break;
  }
}

/// Open loop on one connection: sends scheduled as a Poisson process with
/// mean gap `mean_gap_ns` from `t_start`, whatever the replies do.
/// Independent users arrive this way; a fixed interval would instead line
/// every gap up against the service's 2 ms batch-flush tick, so latency
/// would hinge on timer jitter. Between sends the thread waits on the
/// socket (not on a timer), so a reply is timestamped when it arrives;
/// latency counts from each request's scheduled send.
void open_loop(net::NpdpClient& cli, Source src, SplitMix64 arrivals,
               std::int64_t t_start, std::int64_t t_end, double mean_gap_ns,
               bool traced, std::vector<Sample>* out) {
  std::string err;
  std::unordered_map<std::uint64_t, Sample> outstanding;
  std::uint64_t id = 0;
  auto gap = [&] {
    return static_cast<std::int64_t>(-std::log1p(-arrivals.next_unit()) *
                                     mean_gap_ns);
  };
  std::int64_t next = t_start + gap();
  const std::int64_t drain_end = t_end + std::int64_t(kReplyTimeoutMs) * 1'000'000;
  while (cli.connected()) {
    const std::int64_t now = now_ns();
    const bool sending = next < t_end;
    if (!sending && (outstanding.empty() || now > drain_end)) break;
    if (sending && now >= next) {
      Sample s;
      s.payload = src.next();
      s.traced = traced;
      net::WireRequest w;
      w.id = ++id;
      w.payload = s.payload;
      const std::vector<std::uint8_t> frame = net::encode_request(w);
      s.scheduled = next;
      s.sent = now_ns();
      next += gap();
      const bool alive = cli.send_frame(frame, &err);
      outstanding.emplace(w.id, std::move(s));
      if (!alive) break;
      continue;
    }
    Reply rep;
    const RecvStatus rs = cli.recv_reply(&rep, 0, &err);
    if (rs == RecvStatus::Ok) {
      const auto it = outstanding.find(rep.id);
      if (it != outstanding.end()) {
        take_result(rep, &it->second);
        if (traced) record_request_spans(it->second, rep.id);
        out->push_back(std::move(it->second));
        outstanding.erase(it);
      }
      continue;
    }
    if (rs != RecvStatus::Timeout) break;
    const std::int64_t wait = (sending ? next : drain_end) - now_ns();
    if (wait <= 0) continue;
    pollfd pfd{cli.fd(), POLLIN, 0};
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    ppoll(&pfd, 1, &ts, nullptr);
  }
  // Whatever is still outstanding never got a reply: it counts as failed.
  for (auto& [rid, s] : outstanding) out->push_back(std::move(s));
}

/// One load phase: its samples and the interval [t0, t1) it offered load.
struct Phase {
  std::vector<Sample> samples;
  std::int64_t t0 = 0, t1 = 0;
};

Phase run_closed(Fleet& f, const std::vector<Payload>* pool, index_t size,
                 std::uint64_t seed, double seconds) {
  Phase ph;
  ph.t0 = now_ns();
  ph.t1 = ph.t0 + std::int64_t(seconds * 1e9);
  std::vector<std::vector<Sample>> per(f.clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < f.clients.size(); ++c)
    threads.emplace_back([&, c] {
      closed_loop(f.clients[c], Source{pool, size, SplitMix64(mix(seed, c))},
                  ph.t1, &per[c]);
    });
  for (auto& t : threads) t.join();
  for (auto& v : per)
    for (auto& s : v) ph.samples.push_back(std::move(s));
  return ph;
}

/// Appends `seconds` of open-loop load at `rate` requests/s, spread over
/// the fleet's connections, to `ph`.
void run_open(Fleet& f, const std::vector<Payload>* pool, index_t size,
              std::uint64_t seed, double seconds, double rate, bool traced,
              Phase* ph) {
  const std::size_t conns = f.clients.size();
  const double mean_gap_ns = 1e9 * double(conns) / rate;
  const std::int64_t t0 = now_ns();
  const std::int64_t t_end = t0 + std::int64_t(seconds * 1e9);
  std::vector<std::vector<Sample>> per(conns);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c)
    threads.emplace_back([&, c] {
      open_loop(f.clients[c], Source{pool, size, SplitMix64(mix(seed, c))},
                SplitMix64(mix(seed, conns + c)), t0, t_end, mean_gap_ns,
                traced, &per[c]);
    });
  for (auto& t : threads) t.join();
  if (ph->samples.empty()) ph->t0 = t0;
  ph->t1 = t_end;
  for (auto& v : per)
    for (auto& s : v) ph->samples.push_back(std::move(s));
}

/// Latencies (ms from the scheduled send) of the successful samples of
/// `ph`, grouped by the slice their `at` time falls in.
std::vector<std::vector<double>> latency_windows(const Phase& ph,
                                                 std::int64_t Sample::*at) {
  std::vector<std::int64_t> times;
  std::vector<double> latency;
  for (const Sample& s : ph.samples)
    if (s.ok()) {
      times.push_back(s.*at);
      latency.push_back(s.latency_ms());
    }
  return by_window(times, latency, ph.t0, ph.t1);
}

/// One blocking request; false when no Result came back.
bool call(net::NpdpClient& cli, std::uint64_t id, const Payload& p,
          Sample* s) {
  std::string err;
  net::WireRequest w;
  w.id = id;
  w.payload = p;
  s->payload = p;
  Reply rep;
  s->scheduled = s->sent = now_ns();
  const bool ok = cli.call(w, &rep, kReplyTimeoutMs, &err) == RecvStatus::Ok;
  if (ok) take_result(rep, s);
  s->received = now_ns();
  return ok;
}

/// Checks every sample against the in-process answer for its payload and
/// re-runs the distinct solve payloads on all three drivers, whose tables
/// must agree byte for byte.
void check_replies(const std::vector<const std::vector<Sample>*>& sets,
                   std::size_t threads, Outcome* out, SolveSamples* solves) {
  std::unordered_map<std::uint64_t, const Payload*> unique;
  std::vector<std::uint64_t> order;
  for (const auto* set : sets)
    for (const Sample& s : *set) {
      const std::uint64_t h = serve::content_hash(s.payload);
      if (unique.emplace(h, &s.payload).second) order.push_back(h);
    }
  std::vector<double> values(order.size());
  {
    std::vector<std::thread> pool;
    const std::size_t workers = std::min<std::size_t>(threads, 4);
    for (std::size_t w = 0; w < workers; ++w)
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < order.size(); i += workers)
          values[i] = reference_value(*unique[order[i]]);
      });
    for (auto& t : pool) t.join();
  }
  std::unordered_map<std::uint64_t, double> want;
  for (std::size_t i = 0; i < order.size(); ++i) want[order[i]] = values[i];

  for (const auto* set : sets)
    for (const Sample& s : *set) {
      ++out->attempted;
      if (!s.replied) {
        out->fail("no reply");
      } else if (!serve::is_success(s.status)) {
        out->fail(std::string("status ") + serve::status_name(s.status));
      } else if (s.value != want[serve::content_hash(s.payload)]) {
        static const char* const kKinds[] = {"solve", "fold", "parse",
                                             "chain", "bst"};
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s: reply %.9g, library %.9g",
                      kKinds[s.payload.index()], s.value,
                      want[serve::content_hash(s.payload)]);
        out->fail(buf);
      }
    }

  // The in-process solves behind solve_s & co.: passes over the distinct
  // solve payloads for kGateS seconds, each pass a 1-thread solve of every
  // payload, then an nproc solve of every payload, then distributed solves
  // until kGateDist are spread evenly over the time. Solves of one driver
  // run back to back, so a 1-thread solve never lands on the heels of a
  // thread pool's start-up or teardown. The first pass's 1-thread table
  // must carry the reference value, and every later table must equal it
  // byte for byte.
  std::vector<std::uint64_t> keys;
  for (const std::uint64_t h : order)
    if (std::holds_alternative<serve::SolveSpec>(*unique[h]))
      keys.push_back(h);
  std::vector<std::unique_ptr<Table>> first(keys.size());
  auto solve = [&](std::size_t i, std::size_t driver_threads) {
    const auto& spec = std::get<serve::SolveSpec>(*unique[keys[i]]);
    const NpdpInstance<float> inst = seeded_instance(spec.n, spec.seed);
    ++out->attempted;
    if (driver_threads == 0) return run_dist(inst, spec.block_side, kPeers);
    return run_blocked(inst, spec.block_side, driver_threads,
                       driver_threads == 1 ? "solve.1t" : "solve.nproc");
  };
  auto check = [&](std::size_t i, SolveRun& r, const char* driver) {
    if (!same_bytes(*r.table, *first[i]))
      out->fail(std::string(driver) + " table differs");
    r.table.reset();
  };
  const std::int64_t start = now_ns();
  const double span_ns = kGateS * 1e9;
  for (bool again = !keys.empty(); again;
       again = double(now_ns() - start) < span_ns) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      SolveRun b = solve(i, 1);
      if (first[i] == nullptr) {
        const auto& spec = std::get<serve::SolveSpec>(*unique[keys[i]]);
        if (double(b.table->at(0, spec.n - 1)) != want[keys[i]])
          out->fail("1-thread solve differs from reference");
        first[i] = std::move(b.table);
      } else {
        check(i, b, "1-thread");
      }
      solves->one.push_back(std::move(b));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      SolveRun a = solve(i, threads);
      check(i, a, "nproc");
      solves->nproc.push_back(std::move(a));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const double due = double(now_ns() - start) / span_ns * kGateDist;
      if (solves->dist.size() >= kGateDist ||
          double(solves->dist.size()) > due)
        break;
      SolveRun d = solve(i, 0);
      check(i, d, "distributed");
      solves->dist.push_back(std::move(d));
    }
  }
}

double frac(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void add_serving_zeros(Outcome* out) {
  for (const char* ms : {"serve.queue_p50_ms", "serve.queue_p99_ms",
                         "serve.solve_p50_ms", "serve.respond_p50_ms"})
    out->add(scalar(ms, "ms", 0));
  out->add(scalar("serve.batch_size", "req/batch", 0));
  out->add(scalar("serve.arena_reuse_frac", "frac", 0));
  out->add(scalar("serve.cache_hit_frac", "frac", 0));
  for (const char* ms : {"net.wire_p50_ms", "net.wire_p99_ms",
                         "net.ping_p50_ms"})
    out->add(scalar(ms, "ms", 0));
  out->add(scalar("net.bytes_per_req", "bytes", 0));
  out->add(scalar("router.hop_p50_ms", "ms", 0));
  out->add(scalar("router.requeued", "count", 0));
  out->add(scalar("load.slipped", "count", 0));
  out->add(scalar("load.late_p99_ms", "ms", 0));
}

void run_serve(const RunOptions& o, bool hit, Outcome* out) {
  const std::size_t threads = static_cast<std::size_t>(hardware_threads());
  const int conns = std::min(4, hardware_threads());
  const index_t size = o.smoke ? 24 : 48;
  const double rate = hit ? kHitRate : kMissRate;

  // Set-up, kSetups times (the last fleet is kept): generate the inputs,
  // start the fleet, connect and probe every load connection, then send a
  // first round of requests. On serve-hit that round is the whole pool and
  // fills the replicas' caches. On serve-miss it is one fresh request of
  // each kind per connection, so every kind's lazy start-up is paid before
  // timing and the cache still never sees a repeat.
  std::vector<double> setup;
  std::vector<Payload> pool;
  std::vector<Sample> warm;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    warm.clear();
    const std::int64_t t0 = now_ns();
    std::vector<Payload> first;
    for (int k = 0; k < 5; ++k)
      for (int j = 0; j < (hit ? kPoolPerKind : conns); ++j) {
        const int key = hit ? k * 1000 + j : (i + 1) * 100000 + k * 1000 + j;
        first.push_back(make_payload(k, mix(o.seed, std::uint64_t(key)), size));
      }
    if (hit) pool = first;
    fleet = std::make_unique<Fleet>();
    std::string err;
    if (!start_fleet(hit, conns, fleet.get(), &err)) {
      out->attempted += 1;
      out->fail("fleet start: " + err);
      return;
    }
    send_pipelined(*fleet, first, &warm);
    setup.push_back(double(now_ns() - t0) * 1e-9);
  }
  const std::vector<Payload>* src = hit ? &pool : nullptr;
  const serve::ServiceStats svc0 = fleet->service_total();
  const net::ServerStats net0 = fleet->server_total();
  const std::uint64_t seed = mix(o.seed, 0x5e7e);

  // Load phases: a quarter of the time closed loop, then three quarters
  // open loop, whose tail percentile needs the samples. The traced run
  // splits the open loop into four alternating untraced/traced segments,
  // so traced and untraced latencies are measured under the same
  // conditions.
  Phase closed = run_closed(*fleet, src, size, mix(seed, 1), o.seconds / 4);
  Phase open;
  if (o.trace) {
    for (int seg = 0; seg < 4; ++seg) {
      const bool traced = seg % 2 == 1;
      spans().set_enabled(traced);
      run_open(*fleet, src, size, mix(seed, 10 + seg), o.seconds * 3 / 16,
               rate, traced, &open);
      spans().set_enabled(false);
    }
  } else {
    run_open(*fleet, src, size, mix(seed, 2), o.seconds * 3 / 4, rate, false,
             &open);
  }
  const serve::ServiceStats svc1 = fleet->service_total();
  const net::ServerStats net1 = fleet->server_total();
  // Read before the correctness gate, whose thousands of short-lived solver
  // threads grow the allocator's arenas: this is the serving stack's peak.
  const double rss_mb = peak_rss_mb();

  // Probes of the traced run: front-end ping, and on serve-hit the same
  // cached requests through the router and straight to their owner.
  std::vector<Sample> probes;
  std::vector<double> ping_ms, via_ms, direct_ms;
  if (o.trace) {
    spans().set_enabled(true);
    net::NpdpClient& cli = fleet->clients.front();
    std::string err;
    for (int i = 0; i < kPings; ++i) {
      const std::int64_t t0 = now_ns();
      const bool ok = cli.ping(1000 + std::uint64_t(i), kReplyTimeoutMs,
                               &err) == RecvStatus::Ok;
      const std::int64_t t1 = now_ns();
      ++out->attempted;
      if (!ok) {
        out->fail("ping: " + err);
        break;
      }
      spans().record("net.ping", t0, t1);
      ping_ms.push_back(double(t1 - t0) * 1e-6);
    }
    if (hit) {
      router::HashRing ring(router::RouterOptions{}.vnodes);
      std::vector<net::NpdpClient> direct(fleet->replicas.size());
      for (std::size_t r = 0; r < direct.size(); ++r) {
        ring.add("r" + std::to_string(r));
        direct[r].connect("127.0.0.1", fleet->replicas[r]->port(), &err, 2000);
      }
      for (int i = 0; i < kHopPairs; ++i) {
        const Payload& p = pool[std::size_t(i) % pool.size()];
        const std::string owner = ring.lookup(serve::content_hash(p));
        const std::size_t r = std::stoul(owner.substr(1));
        Sample via, dir;
        call(cli, 5000 + std::uint64_t(i), p, &via);
        call(direct[r], 5000 + std::uint64_t(i), p, &dir);
        spans().record("router.via", via.sent, via.received);
        spans().record("router.direct", dir.sent, dir.received);
        if (via.ok()) via_ms.push_back(via.rtt_ms());
        if (dir.ok()) direct_ms.push_back(dir.rtt_ms());
        probes.push_back(std::move(via));
        probes.push_back(std::move(dir));
      }
    }
    spans().set_enabled(false);
  }
  const std::uint64_t requeued = hit ? fleet->router->stats().requeued : 0;
  fleet.reset();

  // Correctness gate, and the in-process solves behind solve_s & co.
  SolveSamples solves;
  spans().set_enabled(o.trace);
  check_replies({&warm, &closed.samples, &open.samples, &probes}, threads,
                out, &solves);
  spans().set_enabled(false);

  if (!o.trace) {
    std::vector<double> rps, p50, p99;
    const auto slices = latency_windows(closed, &Sample::received);
    const double slice_s =
        double(closed.t1 - closed.t0) * 1e-9 / double(slices.size());
    for (const auto& w : slices) rps.push_back(double(w.size()) / slice_s);
    for (const auto& w : latency_windows(open, &Sample::scheduled)) {
      p50.push_back(quantile(w, 0.5));
      p99.push_back(quantile(w, 0.99));
    }
    out->add(summarize("setup_s", "s", setup));
    out->add(summarize("solve_s", "s", seconds_of(solves.nproc), kFastest));
    out->add(summarize("solve_1t_s", "s", seconds_of(solves.one), kFastest));
    out->add(summarize("dist_solve_s", "s", seconds_of(solves.dist)));
    out->add(summarize("rps", "1/s", rps));
    out->add(summarize("p50_ms", "ms", p50));
    out->add(summarize("p99_ms", "ms", p99, kQuietQuarter));
    out->add(scalar("peak_rss_mb", "MiB", rss_mb));
    return;
  }

  add_solve_layers(solves, threads, kernel_grelax_s(0.3), out);
  const SpanLog& log = spans();
  const std::vector<double> queue = log.durations_ms("serve.queue");
  const std::vector<double> solve = log.durations_ms("serve.solve");
  const std::vector<double> respond = log.durations_ms("serve.respond");
  const std::vector<double> wire = log.durations_ms("net.wire");
  const std::vector<double> rtt = log.durations_ms("client.request");
  out->add(scalar("serve.queue_p50_ms", "ms", quantile(queue, 0.5)));
  out->add(scalar("serve.queue_p99_ms", "ms", quantile(queue, 0.99)));
  out->add(scalar("serve.solve_p50_ms", "ms", quantile(solve, 0.5)));
  out->add(scalar("serve.respond_p50_ms", "ms", quantile(respond, 0.5)));
  const double batches = double(svc1.batches - svc0.batches);
  out->add(scalar("serve.batch_size", "req/batch",
                  frac(double(svc1.completed - svc0.completed), batches)));
  const double reuses = double(svc1.arena_reuses - svc0.arena_reuses);
  const double allocs =
      double(svc1.arena_allocations - svc0.arena_allocations);
  out->add(scalar("serve.arena_reuse_frac", "frac",
                  frac(reuses, reuses + allocs)));
  const double hits = double(svc1.cache_hits - svc0.cache_hits);
  const double misses = double(svc1.cache_misses - svc0.cache_misses);
  out->add(scalar("serve.cache_hit_frac", "frac", frac(hits, hits + misses)));
  out->add(scalar("net.wire_p50_ms", "ms", quantile(wire, 0.5)));
  out->add(scalar("net.wire_p99_ms", "ms", quantile(wire, 0.99)));
  out->add(scalar("net.ping_p50_ms", "ms", quantile(ping_ms, 0.5)));
  out->add(scalar("net.bytes_per_req", "bytes",
                  frac(double(net1.bytes_in + net1.bytes_out - net0.bytes_in -
                              net0.bytes_out),
                       double(net1.responses - net0.responses))));
  out->add(scalar("router.hop_p50_ms", "ms",
                  hit ? median(via_ms) - median(direct_ms) : 0));
  out->add(scalar("router.requeued", "count", double(requeued)));

  std::vector<double> late_ms;
  std::size_t slipped = 0;
  for (const Sample& s : open.samples) {
    late_ms.push_back(double(s.sent - s.scheduled) * 1e-6);
    slipped += s.sent - s.scheduled > kSlipNs ? 1 : 0;
  }
  out->add(scalar("load.slipped", "count", double(slipped)));
  out->add(scalar("load.late_p99_ms", "ms", quantile(late_ms, 0.99)));

  std::vector<double> traced_lat, untraced_lat;
  for (const Sample& s : open.samples)
    if (s.ok()) (s.traced ? traced_lat : untraced_lat).push_back(s.latency_ms());
  out->add(scalar("obs.trace_overhead_frac", "frac",
                  frac(median(traced_lat) - median(untraced_lat),
                       median(untraced_lat))));
  const double layers = quantile(wire, 0.5) + quantile(queue, 0.5) +
                        quantile(solve, 0.5) + quantile(respond, 0.5);
  const double whole = quantile(rtt, 0.5);
  const double gap = frac(std::fabs(layers - whole), whole);
  if (gap > 0.05)
    std::fprintf(stderr, "budget: layer self times miss the round trip by "
                         "%.1f%% (over 5%%)\n", gap * 100);
  out->add(scalar("budget.gap_frac", "frac", gap));
}

}  // namespace perfbench

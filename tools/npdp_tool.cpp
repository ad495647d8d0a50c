// npdp — command-line front end to the cellnpdp library.
//
// Every subcommand declares its flags once through cli::Flags
// (tools/cli.hpp) and checks the command line against them before it does
// any work. `npdp` with no arguments prints each subcommand with its
// flags, defaults and help, generated from those declarations.
//
// Exit codes: 0 success, 1 runtime error, 2 unknown subcommand,
// 3 bad arguments (an undeclared, repeated, value-less or malformed flag,
// a positional word, a value outside a choice list, a missing required
// flag).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/cyk/cyk.hpp"
#include "apps/zuker/fold.hpp"
#include "backend/solver_backend.hpp"
#include "bench_util/bench_config.hpp"
#include "bench_util/json_out.hpp"
#include "bench_util/table.hpp"
#include "cellsim/npdp_sim.hpp"
#include "cli.hpp"
#include "cluster/cluster_sim.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/solve.hpp"
#include "dist/in_process.hpp"
#include "io/table_io.hpp"
#include "model/perf_model.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/request_log.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "resilience/circuit_breaker.hpp"
#include "router/router.hpp"
#include "resilience/fault_injector.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/service.hpp"
#include "serve/tenant.hpp"

using namespace cellnpdp;
using cli::UsageError;

namespace {

/// {name(v), v} for each of `values`: choices spelled as the library
/// names them.
template <class E, class Name>
std::vector<std::pair<std::string, E>> named(std::initializer_list<E> vs,
                                             Name name) {
  std::vector<std::pair<std::string, E>> out;
  for (const E v : vs) out.emplace_back(name(v), v);
  return out;
}

const auto kSemirings = named({SemiringId::MinPlus, SemiringId::MaxPlus,
                               SemiringId::Counting, SemiringId::ViterbiLog},
                              semiring_name);

/// Every registered backend's name: the choices of --backend/--fallback.
std::vector<std::string> backend_names() {
  std::vector<std::string> out;
  for (const auto* b : backend::BackendRegistry::instance().list())
    out.emplace_back(b->name());
  return out;
}

/// Opens `path` for writing; false, after "<who>: cannot write <path>"
/// on stderr, when it cannot.
bool open_out(std::ofstream& os, const std::string& path, const char* who) {
  os.open(path);
  if (!os) std::fprintf(stderr, "%s: cannot write %s\n", who, path.c_str());
  return bool(os);
}

/// --n --seed --semiring --block --kernel --threads: the seeded float
/// instance that solve and dist-solve build, and the tuning that solves
/// it. The same flags give the same table in both, so a dist-solve rank's
/// saved table can be compared byte for byte with `npdp solve --save`.
struct Workload {
  index_t n = 1024;
  std::uint64_t seed = 1;
  SemiringId semiring = SemiringId::MinPlus;
  NpdpOptions tuning;

  void declare(cli::Flags& f) {
    f.value("n", &n, "problem size: table side in cells")
        .value("seed", &seed, "instance seed")
        .choice("semiring", &semiring, kSemirings, "semiring to solve over")
        .value("block", &tuning.block_side, "memory-block side in cells")
        .choice("kernel", &tuning.kernel,
                named({KernelKind::Scalar, KernelKind::Native,
                       KernelKind::Wide}, kernel_kind_name),
                "computing-block kernel")
        .value("threads", &tuning.threads, "solver threads");
  }
  NpdpInstance<float> instance() const {
    NpdpInstance<float> inst;
    inst.n = n;
    inst.semiring = semiring;
    inst.init = [seed = seed, sr = semiring](index_t i, index_t j) {
      return semiring_init_value<float>(sr, seed, i, j);
    };
    return inst;
  }
};

/// --trace FILE --trace-buf N: records spans while the subcommand runs
/// and writes them as Chrome trace-event JSON.
struct TraceFlags {
  std::string file;
  std::size_t buf = 1 << 18;

  void declare(cli::Flags& f) {
    f.value("trace FILE", &file, "write spans to FILE as Chrome trace JSON")
        .value("trace-buf", &buf, "span ring capacity per thread");
  }
  bool on() const { return !file.empty(); }
  void start() const {
    if (on()) obs::Tracer::instance().start(buf);
  }
  /// Stops tracing and writes FILE as process `process`; false when FILE
  /// cannot be written.
  bool finish(const char* who, const char* process) const {
    if (!on()) return true;
    obs::Tracer::instance().stop();
    const long events = obs::export_chrome_trace(file, process);
    if (events < 0) {
      std::fprintf(stderr, "%s: cannot write %s\n", who, file.c_str());
      return false;
    }
    std::printf("%s: trace written to %s (%ld events; open in "
                "https://ui.perfetto.dev)\n", who, file.c_str(), events);
    std::uint64_t dropped = 0;
    for (const auto& t : obs::Tracer::instance().snapshot())
      dropped += t.dropped;
    if (dropped > 0)
      std::printf("warning: %llu events dropped (ring full); rerun with a "
                  "larger --trace-buf\n",
                  static_cast<unsigned long long>(dropped));
    return true;
  }
};

/// --fault-plan FILE: parses the plan and installs it as the process-wide
/// fault hook for the scope's lifetime (null without a plan). Malformed
/// plans are usage errors (exit 3).
std::unique_ptr<resilience::FaultInjectionScope> fault_scope_from(
    const std::string& path) {
  if (path.empty()) return nullptr;
  resilience::FaultPlan plan;
  std::string err;
  if (!resilience::fault_plan_from_file(path, &plan, &err))
    throw UsageError("--fault-plan: " + err);
  return std::make_unique<resilience::FaultInjectionScope>(std::move(plan));
}

/// --fault-log FILE: dumps the fired-fault log (the replay-determinism
/// artifact) after a faulty run. Returns false on I/O failure.
bool write_fault_log(const std::string& path,
                     resilience::FaultInjectionScope* scope) {
  if (path.empty() || scope == nullptr) return true;
  std::ofstream os;
  if (!open_out(os, path, "error")) return false;
  scope->injector().write_log(os);
  return true;
}

int cmd_solve(cli::Flags& f) {
  Workload w;
  bool maxplus = false, report = false;
  std::string backend_name, save, metrics, fault_plan, fault_log;
  std::optional<std::int64_t> deadline_ms;
  ExecutionContext ctx;
  TraceFlags trace;
  w.declare(f);
  // --maxplus predates --semiring and stays as an alias; the engine runs
  // the native max-plus instantiation either way.
  f.flag("maxplus", &maxplus, "same as --semiring max-plus")
      .choice("backend NAME", &backend_name, backend_names(),
              "solver (default blocked-parallel if --threads > 1, else "
              "blocked-serial)")
      .value("deadline-ms", &deadline_ms, "cancel the solve after this long")
      .value("retries", &ctx.retry.max_attempts, "attempts per block (>= 1)")
      .value("fault-plan FILE", &fault_plan, "inject the faults FILE plans")
      .value("fault-log FILE", &fault_log, "write the fired faults to FILE")
      .value("save FILE", &save, "write the solved table to FILE")
      .value("metrics FILE", &metrics, "write the metrics registry to FILE")
      .flag("report", &report, "print the utilization report");
  trace.declare(f);
  if (!f.parse()) return 0;
  if (maxplus) w.semiring = SemiringId::MaxPlus;
  if (backend_name.empty())
    backend_name = w.tuning.threads > 1 ? "blocked-parallel" : "blocked-serial";
  const backend::SolverBackend& be = backend::require_backend(backend_name);
  const NpdpInstance<float> inst = w.instance();
  const NpdpOptions& opts = w.tuning;
  trace.start();

  // Activated before the solve so every fault site below sees the plan;
  // kept alive until after the log is written.
  auto fault_scope = fault_scope_from(fault_plan);

  Stopwatch sw;
  SolveStats ss;
  ctx.tuning = opts;
  ctx.stats = (report || !metrics.empty()) ? &ss : nullptr;
  if (deadline_ms)
    ctx.cancel = CancelToken::after(std::chrono::milliseconds(*deadline_ms));
  ctx.retry.max_attempts = std::max(1, ctx.retry.max_attempts);

  double value = 0, sim_s = 0;
  std::shared_ptr<BlockedTriangularMatrix<float>> table;
  {
    const backend::BackendResult r = be.solve(inst, ctx);
    if (r.status == SolveStatus::Cancelled) {
      write_fault_log(fault_log, fault_scope.get());
      std::printf("cancelled (%s) after %s: partial table discarded\n",
                  cancel_reason_name(ctx.cancel.reason()),
                  fmt_seconds(sw.seconds()).c_str());
      return 1;
    }
    value = r.value;
    sim_s = r.sim_seconds;
    table = r.blocked;
  }
  const double s = sw.seconds();
  if (trace.on()) obs::Tracer::instance().stop();
  std::printf("solved n=%lld (%s: %s, %s, block %lld, %zu threads) in %s\n",
              static_cast<long long>(inst.n), backend_name.c_str(),
              std::string(kernel_kind_name(opts.kernel)).c_str(),
              std::string(semiring_name(w.semiring)).c_str(),
              static_cast<long long>(opts.block_side), opts.threads,
              fmt_seconds(s).c_str());
  std::printf("d[0][n-1] = %g; %.2f G relax/s\n", value,
              double(npdp_relaxations(inst.n)) / s / 1e9);
  if (sim_s > 0)
    std::printf("simulated Cell time %s\n", fmt_seconds(sim_s).c_str());
  if (fault_scope != nullptr) {
    const resilience::FaultInjector& inj = fault_scope->injector();
    std::printf("faults injected:");
    for (int si = 0; si < kFaultSiteCount; ++si) {
      const auto site = static_cast<FaultSite>(si);
      if (inj.occurrences(site) == 0 && inj.fired_count(site) == 0) continue;
      std::printf(" %s=%lld/%lld", fault_site_name(site),
                  static_cast<long long>(inj.fired_count(site)),
                  static_cast<long long>(inj.occurrences(site)));
    }
    std::printf(" (fired/occurrences)\n");
    if (!write_fault_log(fault_log, fault_scope.get())) return 1;
    if (!fault_log.empty())
      std::printf("fault log written to %s\n", fault_log.c_str());
  }
  if (!save.empty()) {
    if (table == nullptr)
      throw UsageError("--save needs a backend producing a blocked table "
                       "(backend '" + backend_name + "' does not)");
    save_table_file(save, *table);
    std::printf("saved to %s\n", save.c_str());
  }

  if (!trace.finish("solve", "cellnpdp")) return 1;
  if (!metrics.empty()) {
    // Fold the solve's work counters into the registry before dumping so
    // the snapshot carries engine phases alongside scheduler metrics.
    obs::metrics().counter("engine.kernel_calls").add(ss.engine.kernel_calls);
    obs::metrics().counter("engine.corner_relax").add(ss.engine.corner_relax);
    obs::metrics().counter("engine.diag_relax").add(ss.engine.diag_relax);
    obs::metrics()
        .counter("engine.cells_finalized")
        .add(ss.engine.cells_finalized);
    std::ofstream os;
    if (!open_out(os, metrics, "error")) return 1;
    obs::metrics().write_json(os);
    std::printf("metrics written to %s\n", metrics.c_str());
  }
  if (report) {
    obs::UtilizationReport rep;
    rep.wall_seconds = ss.wall_seconds;
    rep.worker_busy = ss.worker_busy;
    if (trace.on())
      rep.phases =
          obs::aggregate_phase_totals(obs::Tracer::instance().snapshot());
    ModelParams p;
    p.n1 = double(inst.n);
    p.cores = double(std::max<std::size_t>(1, opts.threads));
    p.n2_override = double(opts.block_side);
    print_utilization_report(std::cout, rep, p);
  }
  return 0;
}

/// Lists every backend in the registry with its capability columns plus a
/// health row (circuit-breaker state from the process-wide board) — the
/// discovery companion of --backend. A backend with no breaker yet is
/// healthy by definition; "open" means the breaker is currently refusing
/// it and requests take the degradation ladder.
int cmd_backends(cli::Flags& f) {
  if (!f.parse()) return 0;
  std::printf("%-17s %-3s %-3s %-9s %-10s %-9s %-12s %-7s %-6s %-11s "
              "%-42s %-8s %-10s\n",
              "name", "sp", "dp", "weighted", "traceback", "parallel",
              "cancellable", "timing", "arena", "self-check", "semirings",
              "healthy", "breaker");
  auto yn = [](bool v) { return v ? "yes" : "-"; };
  for (const backend::SolverBackend* b :
       backend::BackendRegistry::instance().list()) {
    const backend::Capabilities c = b->caps();
    const resilience::CircuitBreaker* br =
        resilience::breakers().find(b->name());
    const bool healthy =
        br == nullptr || br->state() != resilience::BreakerState::Open;
    std::printf("%-17s %-3s %-3s %-9s %-10s %-9s %-12s %-7s %-6s %-11s "
                "%-42s %-8s %-10s\n",
                b->name(), yn(c.single_precision), yn(c.double_precision),
                yn(c.weighted), yn(c.traceback), yn(c.parallel),
                yn(c.cancellable), yn(c.timing_model), yn(c.arena),
                yn(c.self_checking),
                backend::semirings_string(c).c_str(), healthy ? "yes" : "no",
                br != nullptr ? resilience::breaker_state_name(br->state())
                              : "-");
  }
  return 0;
}

/// Parses one Chrome trace JSON file; false, after an error line prefixed
/// by `who`, when it is unreadable or malformed.
bool load_trace_json(const std::string& path, const char* who,
                     JsonValue* out) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "%s: cannot open %s\n", who, path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  std::string err;
  if (!json_parse(text, *out, &err)) {
    std::fprintf(stderr, "%s: %s: malformed JSON: %s\n", who, path.c_str(),
                 err.c_str());
    return false;
  }
  return true;
}

/// Validates a Chrome trace-event JSON file written by --trace: parses
/// it, checks every span is well-formed, and counts worker lanes and
/// scheduling-block task spans. Used by verify.sh so tracing cannot rot
/// silently.
int cmd_check_trace(cli::Flags& f) {
  std::string path;
  bool chains = false;
  double min_chain_frac = 0.99;
  long min_workers = 1;
  std::optional<long> expect_tasks;
  f.value("file FILE", &path, "the Chrome trace JSON to check").required()
      .flag("chains", &chains, "check request chains, not engine spans")
      .value("min-chain-frac", &min_chain_frac, "least complete-chain share")
      .value("min-workers", &min_workers, "least number of worker lanes")
      .value("expect-tasks", &expect_tasks, "exact number of task spans");
  if (!f.parse()) return 0;
  JsonValue root;
  if (!load_trace_json(path, "check-trace", &root)) return 1;
  if (!root.is_object() || !root.has("traceEvents") ||
      !root.at("traceEvents").is_array()) {
    std::fprintf(stderr, "check-trace: missing traceEvents array\n");
    return 1;
  }
  if (chains) {
    // Request-chain mode: correlate cat:"req" events by trace_id across
    // processes (usually a merge-traces output) instead of validating
    // engine spans. Success statuses (Ok, OkCached, Degraded) must show
    // solver or cache work; failures legitimately skip it.
    const obs::ChainSummary cs = obs::analyze_request_chains(root, {0, 1, 7});
    const double frac =
        cs.with_client > 0 ? double(cs.complete) / double(cs.with_client) : 0;
    std::printf("check-trace: %zu request chains, %lld with client span, "
                "%lld complete (%.1f%%), %lld orphans\n",
                cs.chains.size(), static_cast<long long>(cs.with_client),
                static_cast<long long>(cs.complete), 100.0 * frac,
                static_cast<long long>(cs.orphans));
    if (cs.with_client == 0) {
      std::fprintf(stderr, "check-trace: no client-originated chains found\n");
      return 1;
    }
    if (cs.orphans > 0) {
      std::fprintf(stderr,
                   "check-trace: %lld orphan chains (server-side spans with "
                   "no matching client trace_id)\n",
                   static_cast<long long>(cs.orphans));
      return 1;
    }
    if (frac < min_chain_frac) {
      std::fprintf(stderr,
                   "check-trace: only %.1f%% of chains complete "
                   "(need >= %.1f%%)\n",
                   100.0 * frac, 100.0 * min_chain_frac);
      return 1;
    }
    std::printf("check-trace: OK\n");
    return 0;
  }
  const auto& events = root.at("traceEvents").arr;
  std::map<long, long> spans_per_tid;
  std::map<std::string, long> spans_per_cat;
  long tasks = 0, bad = 0;
  for (const JsonValue& ev : events) {
    if (!ev.is_object() || !ev.has("ph") || !ev.at("ph").is_string()) {
      ++bad;
      continue;
    }
    if (ev.at("ph").str != "X") continue;
    if (!ev.has("ts") || !ev.at("ts").is_number() || !ev.has("dur") ||
        !ev.at("dur").is_number() || ev.at("dur").number < 0 ||
        !ev.has("name") || !ev.has("cat") || !ev.has("tid")) {
      ++bad;
      continue;
    }
    ++spans_per_tid[long(ev.at("tid").number)];
    ++spans_per_cat[ev.at("cat").str];
    if (ev.at("name").str == "task") ++tasks;
  }
  long total_spans = 0;
  for (const auto& [tid, cnt] : spans_per_tid) total_spans += cnt;
  std::printf("check-trace: %zu events, %ld spans on %zu lane%s, %ld task "
              "spans\n",
              events.size(), total_spans, spans_per_tid.size(),
              spans_per_tid.size() == 1 ? "" : "s", tasks);
  for (const auto& [cat, cnt] : spans_per_cat)
    std::printf("  cat %-10s %ld spans\n", cat.c_str(), cnt);
  if (bad > 0) {
    std::fprintf(stderr, "check-trace: %ld malformed events\n", bad);
    return 1;
  }
  if (long(spans_per_tid.size()) < min_workers) {
    std::fprintf(stderr,
                 "check-trace: expected >= %ld worker lanes, found %zu\n",
                 min_workers, spans_per_tid.size());
    return 1;
  }
  if (expect_tasks && tasks != *expect_tasks) {
    std::fprintf(stderr, "check-trace: expected %ld task spans, found %ld\n",
                 *expect_tasks, tasks);
    return 1;
  }
  for (const char* cat : {"middle", "inner", "corner"}) {
    if (spans_per_cat.count(cat) == 0) {
      std::fprintf(stderr, "check-trace: no '%s' engine spans recorded\n",
                   cat);
      return 1;
    }
  }
  std::printf("check-trace: OK\n");
  return 0;
}

/// Merges a client-side and a server-side Chrome trace into one file,
/// each on its own pid track; spans correlate by trace_id (args.a0).
int cmd_merge_traces(cli::Flags& f) {
  std::string out_path, client_path, server_path;
  f.value("out FILE", &out_path, "the merged trace to write").required()
      .value("client FILE", &client_path, "the client-side trace").required()
      .value("server FILE", &server_path, "the server-side trace").required();
  if (!f.parse()) return 0;
  JsonValue client, server;
  if (!load_trace_json(client_path, "merge-traces", &client) ||
      !load_trace_json(server_path, "merge-traces", &server))
    return 1;
  std::ofstream os;
  if (!open_out(os, out_path, "merge-traces")) return 1;
  obs::merge_chrome_traces(os, {&client, &server});
  long events = 0;
  for (const JsonValue* t : {&client, &server})
    if (t->is_object() && t->has("traceEvents") &&
        t->at("traceEvents").is_array())
      events += long(t->at("traceEvents").arr.size());
  std::printf("merge-traces: %ld events -> %s\n", events, out_path.c_str());
  return 0;
}

// SIGINT/SIGTERM land here; net-serve, net-route and top poll the flag.
volatile std::sig_atomic_t g_stop_requested = 0;
extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

void catch_stop_signals() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// Blocks until SIGINT/SIGTERM, or until `duration_ms` elapses when it
/// is positive.
void wait_for_stop(std::int64_t duration_ms) {
  catch_stop_signals();
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(duration_ms);
  while (g_stop_requested == 0 &&
         (duration_ms <= 0 || std::chrono::steady_clock::now() < end))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/// --port-file FILE: writes the bound port once the listener is up, so a
/// script polling FILE can connect the moment it appears (needed with
/// --port 0). False when FILE cannot be written.
bool write_port_file(const std::string& path, std::uint16_t port,
                     const char* who) {
  if (path.empty()) return true;
  std::ofstream os;
  if (!open_out(os, path, who)) return false;
  os << port << "\n";
  return true;
}

/// --host --port --timeout-ms: the server a client subcommand talks to.
void client_flags(cli::Flags& f, std::string* host, std::uint16_t* port,
                  int* timeout_ms) {
  f.value("host HOST", host, "server host")
      .value("port", port, "server port")
      .value("timeout-ms", timeout_ms, "per-reply read timeout");
}

/// One row of the `npdp top` stage table: interpolated latency quantiles
/// from a wire histogram snapshot, printed in milliseconds.
void print_stage_row(const char* label, const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  const obs::HistogramSnapshot* h = snap.find_histogram(name);
  if (h == nullptr || h->count == 0) {
    std::printf("  %-10s (no samples)\n", label);
    return;
  }
  std::printf("  %-10s p50 %9.3f ms  p99 %9.3f ms  max %9.3f ms  "
              "(%lld samples)\n",
              label, h->quantile(0.50) / 1e6, h->quantile(0.99) / 1e6,
              double(h->max) / 1e6, static_cast<long long>(h->count));
}

/// Live terminal view of a running net-serve, net-route or dist-solve
/// --stats-port: polls the binary StatsRequest/StatsResponse frame over
/// one connection and renders rps (from counter deltas), per-stage
/// latency quantiles, cache hit rate, shed/degrade counts, queue depth
/// and breaker state. A dist-solve peer gets its peers row instead, and
/// net-route its replies and an upstream row.
/// --prom switches the output to Prometheus text exposition
/// (scrape-ready), --once exits after one poll. Counter deltas are
/// monotone because the host snapshots the whole registry in one pass.
int cmd_top(cli::Flags& f) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 9377;
  int timeout_ms = 5000;
  long interval_ms = 1000, iterations = 0;
  bool once = false, prom = false;
  client_flags(f, &host, &port, &timeout_ms);
  f.value("interval-ms", &interval_ms, "poll interval (>= 50)")
      .value("iterations", &iterations, "polls before exiting (0: no limit)")
      .flag("once", &once, "poll once, without clearing the screen")
      .flag("prom", &prom, "print Prometheus text exposition instead");
  if (!f.parse()) return 0;
  interval_ms = std::max(50L, interval_ms);
  iterations = once ? 1 : iterations;
  net::NpdpClient cli;
  std::string err;
  if (!cli.connect(host, port, &err)) {
    std::fprintf(stderr, "top: %s\n", err.c_str());
    return 1;
  }
  catch_stop_signals();

  bool have_prev = false;
  obs::MetricsSnapshot prev;
  auto prev_t = std::chrono::steady_clock::now();
  long iter = 0;
  while (g_stop_requested == 0) {
    net::WireStats ws;
    if (cli.stats_snapshot(&ws, timeout_ms, &err) !=
        net::NpdpClient::RecvStatus::Ok) {
      std::fprintf(stderr, "top: %s\n", err.c_str());
      return 1;
    }
    const auto now_t = std::chrono::steady_clock::now();
    const obs::MetricsSnapshot& snap = ws.metrics;

    if (prom) {
      std::vector<obs::PromLabeledSample> extra;
      extra.push_back({"queue_depth", {}, double(ws.queue_depth)});
      for (const auto& b : ws.breakers) {
        extra.push_back({"breaker_state", {{"backend", b.name}},
                         double(b.state)});
        extra.push_back({"breaker_failure_rate", {{"backend", b.name}},
                         b.failure_rate});
      }
      obs::write_prometheus_text(std::cout, snap, extra);
    } else {
      // The view follows what the host registers at startup: a running
      // SolveService publishes the serve.queue_depth gauge, and a
      // dist-solve peer its net.peer.* byte counters; anything else is a
      // router. Responded-request rate from counter deltas: serve.status.*
      // on a serve host, router replies (forwarded and synthesized) on a
      // router. The first poll has no baseline, so it reports totals since
      // start.
      const bool serve_host = std::any_of(
          snap.gauges.begin(), snap.gauges.end(),
          [](const auto& g) { return g.first.rfind("serve.", 0) == 0; });
      const bool peer_host =
          !serve_host && snap.counter_or("net.peer.bytes_sent", -1) >= 0;
      const auto responded_in = [serve_host](const obs::MetricsSnapshot& s) {
        if (!serve_host)
          return s.counter_or("router.replies", 0) +
                 s.counter_or("router.synthesized", 0);
        std::int64_t n = 0;
        for (const auto& [name, v] : s.counters)
          if (name.rfind("serve.status.", 0) == 0) n += v;
        return n;
      };
      const std::int64_t responded = responded_in(snap);
      const std::int64_t responded_prev = have_prev ? responded_in(prev) : 0;
      const double dt =
          have_prev
              ? std::chrono::duration<double>(now_t - prev_t).count()
              : 0;
      const double rps =
          dt > 0 ? double(responded - responded_prev) / dt : 0;

      const std::int64_t hits = snap.counter_or("serve.cache.hits", 0);
      const std::int64_t misses = snap.counter_or("serve.cache.misses", 0);
      const double hit_rate =
          hits + misses > 0 ? double(hits) / double(hits + misses) : 0;

      if (!once) std::printf("\033[2J\033[H");
      std::printf("npdp top — %s:%u  (poll %ld, interval %ld ms)\n",
                  host.c_str(), unsigned(port), iter + 1, interval_ms);
      if (peer_host) {
        // A peer answers no requests.
      } else if (have_prev) {
        std::printf("  rps %.1f (responded %lld, +%lld)\n", rps,
                    static_cast<long long>(responded),
                    static_cast<long long>(responded - responded_prev));
      } else {
        std::printf("  responded %lld since start\n",
                    static_cast<long long>(responded));
      }
      if (serve_host) {
        print_stage_row("queue", snap, "serve.queue_ns");
        print_stage_row("solve", snap, "serve.solve_ns");
        print_stage_row("encode", snap, "net.encode_ns");
        print_stage_row("total", snap, "serve.total_ns");
        std::printf("  cache hit rate %.1f%% (%lld hits / %lld misses)\n",
                    100.0 * hit_rate, static_cast<long long>(hits),
                    static_cast<long long>(misses));
        std::printf("  shed %lld  degraded %lld  retry-after %lld  "
                    "queue depth %lld\n",
                    static_cast<long long>(
                        snap.counter_or("serve.status.shed", 0)),
                    static_cast<long long>(
                        snap.counter_or("serve.status.degraded", 0)),
                    static_cast<long long>(
                        snap.counter_or("serve.status.retry-after", 0)),
                    static_cast<long long>(ws.queue_depth));
      } else if (!peer_host) {
        print_stage_row("upstream", snap, "router.upstream_ns");
        std::printf("  queue depth %lld\n",
                    static_cast<long long>(ws.queue_depth));
      }
      // Per-tenant QoS rows, assembled from the labeled serve.tenant.*
      // metrics (registry names carry a "{tenant=NAME}" suffix). Only
      // printed when the server is actually running with tenancy.
      struct TenantRow {
        std::int64_t admitted = 0, throttled = 0, shed = 0;
        std::int64_t ok = 0, cached = 0;
        double depth = 0;
      };
      std::map<std::string, TenantRow> tenant_rows;
      const auto tenant_metric = [](const std::string& name,
                                    std::string* base, std::string* tenant) {
        constexpr const char* kPrefix = "serve.tenant.";
        if (name.rfind(kPrefix, 0) != 0 || name.back() != '}') return false;
        const std::size_t open = name.find("{tenant=");
        if (open == std::string::npos) return false;
        *base = name.substr(std::strlen(kPrefix),
                            open - std::strlen(kPrefix));
        *tenant = name.substr(open + 8, name.size() - open - 9);
        return true;
      };
      std::string base, tenant;
      for (const auto& [name, v] : snap.counters) {
        if (!tenant_metric(name, &base, &tenant)) continue;
        TenantRow& row = tenant_rows[tenant];
        if (base == "admitted") row.admitted = v;
        else if (base == "throttled") row.throttled = v;
        else if (base == "shed") row.shed = v;
        else if (base == "status.ok") row.ok = v;
        else if (base == "status.ok-cached") row.cached = v;
      }
      for (const auto& [name, v] : snap.gauges)
        if (tenant_metric(name, &base, &tenant) && base == "queue_depth")
          tenant_rows[tenant].depth = v;
      if (!tenant_rows.empty()) {
        std::printf("  tenants:\n");
        for (const auto& [tname, row] : tenant_rows) {
          const std::int64_t served = row.ok + row.cached;
          const double hit =
              served > 0 ? double(row.cached) / double(served) : 0;
          std::printf("    %-10s admitted %lld  throttled %lld  shed %lld"
                      "  depth %.0f  cache hit %.1f%%\n",
                      tname.c_str(), static_cast<long long>(row.admitted),
                      static_cast<long long>(row.throttled),
                      static_cast<long long>(row.shed), row.depth,
                      100.0 * hit);
        }
      }
      // Distributed-solve peer traffic, from the net.peer.* counters a
      // dist-solve peer's stats endpoint exports: on a peer always (zeros
      // during the handshake), elsewhere once blocks have flowed. The
      // per-source breakdown comes from the labeled
      // net.peer.blocks_received{peer=K} counters.
      const std::int64_t pblk_sent =
          snap.counter_or("net.peer.blocks_sent", 0);
      const std::int64_t pblk_recv =
          snap.counter_or("net.peer.blocks_received", 0);
      if (peer_host || pblk_sent + pblk_recv > 0) {
        std::printf("  peers: blocks sent %lld  received %lld  "
                    "sent %.2f MiB  received %.2f MiB  stalled %.3f s\n",
                    static_cast<long long>(pblk_sent),
                    static_cast<long long>(pblk_recv),
                    double(snap.counter_or("net.peer.bytes_sent", 0)) /
                        (1 << 20),
                    double(snap.counter_or("net.peer.bytes_received", 0)) /
                        (1 << 20),
                    double(snap.counter_or("net.peer.stall_ns", 0)) / 1e9);
        constexpr const char* kPeerPrefix = "net.peer.blocks_received{peer=";
        for (const auto& [name, v] : snap.counters) {
          if (name.rfind(kPeerPrefix, 0) != 0 || name.back() != '}')
            continue;
          const std::string src = name.substr(
              std::strlen(kPeerPrefix),
              name.size() - std::strlen(kPeerPrefix) - 1);
          std::printf("    from rank %-4s %lld blocks\n", src.c_str(),
                      static_cast<long long>(v));
        }
      }
      if (!ws.breakers.empty()) {
        std::printf("  breakers:");
        for (const auto& b : ws.breakers)
          std::printf(" %s=%s(%.0f%%)", b.name.c_str(),
                      resilience::breaker_state_name(
                          static_cast<resilience::BreakerState>(b.state)),
                      100.0 * b.failure_rate);
        std::printf("\n");
      }
      std::fflush(stdout);
    }

    prev = snap;
    prev_t = now_t;
    have_prev = true;
    ++iter;
    if (iterations > 0 && iter >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int cmd_info(cli::Flags& f) {
  std::string path;
  f.value("file FILE", &path, "a table written by solve --save").required();
  if (!f.parse()) return 0;
  const auto table = load_blocked_file<float>(path);
  std::printf("%s: blocked table, n=%lld, block side %lld (%s), %s total\n",
              path.c_str(), static_cast<long long>(table.size()),
              static_cast<long long>(table.block_side()),
              fmt_bytes(double(table.block_bytes())).c_str(),
              fmt_bytes(double(table.total_cells()) * 4).c_str());
  std::printf("d[0][n-1] = %g\n", double(table.at(0, table.size() - 1)));
  return 0;
}

int cmd_fold(cli::Flags& f) {
  std::optional<std::string> bases;
  index_t random = 300;
  std::uint64_t seed = 7;
  zuker::FoldOptions fo;
  f.value("seq ACGU...", &bases, "the RNA sequence to fold")
      .value("random", &random, "else fold a random sequence this long")
      .value("seed", &seed, "seed of the random sequence")
      .value("threads", &fo.threads, "threads per anti-diagonal");
  if (!f.parse()) return 0;
  const auto seq = bases ? zuker::parse_sequence(*bases)
                         : zuker::random_sequence(random, seed);
  zuker::ZukerFolder folder({}, fo);
  Stopwatch sw;
  const auto r = folder.fold(seq);
  std::printf("%s\n%s\n", zuker::bases_to_string(seq).c_str(),
              r.structure.c_str());
  std::printf("MFE %.2f, %zu pairs, %s\n", double(r.mfe), r.pairs.size(),
              fmt_seconds(sw.seconds()).c_str());
  return 0;
}

int cmd_parse(cli::Flags& f) {
  std::string text = "(()())";
  std::optional<std::string> anbn;
  f.value("parens STR", &text, "parse with the balanced-parentheses grammar")
      .value("anbn STR", &anbn, "parse with the a^n b^n grammar instead");
  if (!f.parse()) return 0;
  cyk::Grammar g = cyk::balanced_parens_grammar();
  std::string alphabet = "()";
  if (anbn) {
    g = cyk::anbn_grammar();
    alphabet = "ab";
    text = *anbn;
  }
  cyk::CykParser parser(g);
  const auto r = parser.parse(cyk::tokens_from_string(text, alphabet));
  std::printf("%s: %s", text.c_str(),
              r.accepted() ? "accepted" : "rejected");
  if (r.accepted()) std::printf(" (cost %.1f)", double(r.cost));
  std::printf("\n");
  return r.accepted() ? 0 : 1;
}

int cmd_simulate(cli::Flags& f) {
  index_t n = 4096;
  CellConfig cfg = qs20();
  CellSimOptions o;
  o.block_side = 88;
  bool dp = false;
  std::string trace;
  f.value("n", &n, "problem size: table side in cells")
      .value("spes", &cfg.num_spes, "simulated SPEs")
      .value("block", &o.block_side, "memory-block side (64 with --dp)")
      .flag("dp", &dp, "double precision")
      .value("trace FILE", &trace, "write the per-block trace to FILE as CSV");
  if (!f.parse()) return 0;
  if (dp && !f.given("block")) o.block_side = 64;
  o.record_trace = !trace.empty();
  auto report = [&](auto tag) {
    using T = decltype(tag);
    NpdpInstance<T> inst;
    inst.n = n;
    inst.init = [](index_t, index_t) { return T(1); };
    const auto r = simulate_cellnpdp(inst, cfg, o);
    std::printf("simulated %s n=%lld on %d SPEs (block %lld): %s\n",
                sizeof(T) == 4 ? "SP" : "DP",
                static_cast<long long>(inst.n), cfg.num_spes,
                static_cast<long long>(o.block_side),
                fmt_seconds(r.seconds).c_str());
    std::printf("DMA in %s, utilization %s, kernel %d cycles\n",
                fmt_bytes(double(r.dma_bytes_in)).c_str(),
                fmt_pct(r.utilization).c_str(), r.kernel_cycles);
    if (o.record_trace) {
      std::ofstream os(trace);
      r.write_trace_csv(os);
      std::printf("trace written to %s (%zu events)\n", trace.c_str(),
                  r.trace.size());
    }
  };
  if (dp) {
    report(double{});
  } else {
    report(float{});
  }
  return 0;
}

int cmd_cluster(cli::Flags& f) {
  NpdpInstance<float> inst;
  inst.n = 4096;
  ClusterConfig cfg;
  double bw_gbps = 3.0, lat_us = 10.0;
  ClusterSimOptions o;
  f.value("n", &inst.n, "problem size: table side in cells")
      .value("nodes", &cfg.nodes, "simulated nodes")
      .value("bw-gbps", &bw_gbps, "link bandwidth per node (GB/s)")
      .value("lat-us", &lat_us, "per-message latency (us)")
      .value("block", &o.block_side, "memory-block side in cells");
  if (!f.parse()) return 0;
  inst.init = [](index_t, index_t) { return 1.0f; };
  cfg.link_bandwidth = bw_gbps * 1e9;
  cfg.link_latency = lat_us * 1e-6;
  const auto r = simulate_cluster_npdp(inst, cfg, o);
  std::printf("cluster n=%lld on %d nodes: %s, comm %s, efficiency %s\n",
              static_cast<long long>(inst.n), cfg.nodes,
              fmt_seconds(r.seconds).c_str(),
              fmt_bytes(double(r.comm_bytes)).c_str(),
              fmt_pct(r.efficiency).c_str());
  return 0;
}

int cmd_model(cli::Flags& f) {
  ModelParams p;
  p.n1 = 4096;
  p.n2_override = 88;
  f.value("n N", &p.n1, "problem size: table side in cells")
      .value("spes N", &p.cores, "SPEs")
      .value("block N", &p.n2_override, "memory-block side in cells");
  if (!f.parse()) return 0;
  const auto sp = spu_latencies(Precision::Single);
  p.kernel_cycles = kernel_steady_cycles(4, sp);
  std::printf("T_M=%s T_C=%s T_all=%s U=%s %s-bound (B_req %s/s)\n",
              fmt_seconds(model_memory_time(p)).c_str(),
              fmt_seconds(model_compute_time(p)).c_str(),
              fmt_seconds(model_total_time(p)).c_str(),
              fmt_pct(model_utilization(p)).c_str(),
              model_compute_bound(p) ? "compute" : "memory",
              fmt_bytes(model_required_bandwidth(p)).c_str());
  return 0;
}

/// --host --port --reactors --max-frame --idle-timeout-ms
/// --drain-timeout-ms --port-file --duration-ms: the listener of net-serve
/// (net::ServerOptions) and net-route (net::FrontEndOptions).
struct ListenFlags {
  std::string port_file;
  std::int64_t duration_ms = 0;

  template <class NetOptions>
  void declare(cli::Flags& f, NetOptions* o) {
    f.value("host HOST", &o->host, "address to listen on")
        .value("port", &o->port, "port to listen on (0: ephemeral)")
        .value("reactors", &o->reactors, "epoll reactor threads")
        .value("max-frame", &o->max_frame, "largest frame payload (bytes)")
        .value("idle-timeout-ms", &o->idle_timeout_ms, "idle close (0: never)")
        .value("drain-timeout-ms", &o->drain_timeout_ms, "shutdown budget")
        .value("port-file FILE", &port_file, "write the bound port to FILE")
        .value("duration-ms", &duration_ms, "run this long (0: until SIGTERM)");
  }
};

/// The solve-service flags of serve, bench-serve and net-serve.
struct ServiceFlags {
  serve::ServiceOptions so;
  std::string tenants, fault_plan;

  void declare(cli::Flags& f) {
    using P = serve::OverloadPolicy;
    auto policies = named({P::Block, P::Reject, P::ShedOldest},
                          serve::overload_policy_name);
    policies.emplace_back("shed", P::ShedOldest);
    auto& r = so.resilience;  // default off; see docs/resilience.md
    f.value("workers", &so.workers, "solver worker threads")
        .value("queue", &so.queue_capacity, "admission queue capacity")
        .choice("policy", &so.policy, policies, "what a full queue does")
        .value("cache", &so.cache_capacity, "result cache entries (0: off)")
        .value("batch", &so.batch_max, "requests fused into one dispatch")
        .value("batch-max-size", &so.batch_max_size, "largest batched n")
        .choice("backend NAME", &so.backend, backend_names(), "solver")
        .value("retries", &r.retry.max_attempts, "attempts per solve (>= 1)")
        .flag("breaker", &r.breaker_enabled, "per-backend circuit breaking")
        .choice("fallback NAME", &r.fallback_backend, backend_names(),
                "backend to degrade onto")
        .flag("hedge", &r.hedge.enabled, "hedge straggling solves")
        .value("tenants SPEC", &tenants,
               "per-tenant QoS: ID:name=N:rate=R:burst=B:weight=W:"
               "cache-kb=K/ID2:...")
        .value("fault-plan FILE", &fault_plan, "inject the faults FILE plans");
  }
  /// The service options after parse(): --retries floored at 1,
  /// --tenants parsed (a malformed spec is a usage error).
  serve::ServiceOptions options() const {
    serve::ServiceOptions o = so;
    o.resilience.retry.max_attempts =
        std::max(1, o.resilience.retry.max_attempts);
    std::string err;
    if (!tenants.empty() &&
        !serve::parse_tenant_spec(tenants, &o.tenants, &err))
      throw UsageError("--tenants: " + err);
    return o;
  }
};

/// Drives the in-process solve service from a line-delimited request
/// stream (one request per line, '#' comments and blank lines skipped;
/// format in src/serve/request.hpp). "-" reads stdin.
int cmd_serve(cli::Flags& f) {
  std::string path;
  ServiceFlags svc;
  f.value("requests FILE", &path, "request lines (-: stdin)").required();
  svc.declare(f);
  if (!f.parse()) return 0;
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) throw UsageError("cannot open request stream " + path);
  }
  std::istream& is = path == "-" ? std::cin : file;

  auto fault_scope = fault_scope_from(svc.fault_plan);  // outlives service
  serve::SolveService service(svc.options());
  std::vector<std::future<serve::Response>> futures;
  std::string line;
  std::uint64_t lineno = 0, auto_id = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    serve::Request req;
    std::string err;
    if (!serve::parse_request_line(line, &req, &err))
      throw UsageError(path + ":" + std::to_string(lineno) + ": " + err);
    if (req.id == 0) req.id = ++auto_id;
    futures.push_back(service.submit(std::move(req)));
  }
  bool any_error = false;
  for (auto& f : futures) {
    const serve::Response r = f.get();
    any_error = any_error || r.status == serve::Status::Error;
    // backend= is the *effective* engine: when the resilience ladder fell
    // back (Degraded), this names the backend that actually answered, not
    // the one the request asked for.
    std::string backend_col;
    if (!r.backend.empty()) backend_col = " backend=" + r.backend;
    std::printf("id=%llu status=%s value=%g queue=%.3fms solve=%.3fms "
                "total=%.3fms%s%s%s\n",
                static_cast<unsigned long long>(r.id),
                serve::status_name(r.status), r.value,
                double(r.queue_ns) / 1e6, double(r.solve_ns) / 1e6,
                double(r.total_ns) / 1e6, backend_col.c_str(),
                r.detail.empty() ? "" : " ", r.detail.c_str());
  }
  service.stop();
  const serve::ServiceStats st = service.stats();
  std::printf("served %llu requests: %llu ok, %llu cached, %llu degraded, "
              "%llu rejected, %llu shed, %llu expired, %llu cancelled, "
              "%llu retry-after, %llu errors; %llu batches, %llu arena "
              "reuses\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.degraded),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.shed),
              static_cast<unsigned long long>(st.expired),
              static_cast<unsigned long long>(st.cancelled),
              static_cast<unsigned long long>(st.retry_after),
              static_cast<unsigned long long>(st.errors),
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.arena_reuses));
  if (st.retries + st.hedges + st.fallbacks > 0)
    std::printf("resilience: %llu retries, %llu hedges (%llu wins), "
                "%llu fallbacks\n",
                static_cast<unsigned long long>(st.retries),
                static_cast<unsigned long long>(st.hedges),
                static_cast<unsigned long long>(st.hedge_wins),
                static_cast<unsigned long long>(st.fallbacks));
  return any_error ? 1 : 0;
}

/// Closed- and open-loop load generator against the in-process service.
/// Draws requests from a small pool of distinct instances so the result
/// cache sees a realistic repeated-instance workload, and writes
/// BENCH_serve.json with throughput and latency percentiles.
int cmd_bench_serve(cli::Flags& f) {
  long total = 1000, distinct = 25, max_n = 192;
  std::string mode = "closed";
  ServiceFlags svc;
  std::optional<long> window;
  double rate = 500.0;
  std::uint64_t seed = 42;
  BenchConfig cfg;
  f.value("requests", &total, "requests to send (>= 1)")
      .value("distinct", &distinct, "distinct instances drawn from (>= 1)")
      .choice("mode", &mode, {"closed", "open"}, "fixed window or fixed rate");
  svc.declare(f);
  f.value("concurrency", &window, "closed-loop window (default 2 x --workers)")
      .value("rate", &rate, "open-loop arrivals per second")
      .value("n", &max_n, "largest instance size (>= 64)")
      .value("seed", &seed, "seed of the request draw")
      .value("json-dir DIR", &cfg.json_dir, "where BENCH_serve.json goes");
  if (!f.parse()) return 0;
  if (total < 1) throw UsageError("--requests must be >= 1");
  distinct = std::max(1L, distinct);
  max_n = std::max(64L, max_n);
  const serve::ServiceOptions so = svc.options();
  const long concurrency = std::max(1L, window.value_or(2 * long(so.workers)));
  auto fault_scope = fault_scope_from(svc.fault_plan);  // outlives service

  // The distinct-instance pool: sizes cycle through a few block multiples,
  // seeds make every pool entry a different computation.
  std::vector<serve::Request> pool;
  pool.reserve(static_cast<std::size_t>(distinct));
  for (long i = 0; i < distinct; ++i) {
    serve::Request r;
    serve::SolveSpec s;
    s.n = 64 + 32 * (i % std::max(1L, (max_n - 64) / 32 + 1));
    s.seed = static_cast<std::uint64_t>(1000 + i);
    r.payload = s;
    pool.push_back(r);
  }
  SplitMix64 pick(seed);

  serve::SolveService service(so);
  std::vector<std::future<serve::Response>> inflight;
  std::vector<serve::Response> responses;
  responses.reserve(static_cast<std::size_t>(total));
  auto submit_one = [&](long i) {
    serve::Request r = pool[pick.next_below(pool.size())];
    r.id = static_cast<std::uint64_t>(i + 1);
    inflight.push_back(service.submit(std::move(r)));
  };

  Stopwatch sw;
  if (mode == "closed") {
    // Fixed number of outstanding requests; a completion triggers the
    // next submission (FIFO harvest keeps the window exact).
    long submitted = 0;
    std::size_t harvest = 0;
    while (submitted < total) {
      if (long(inflight.size() - harvest) < concurrency) {
        submit_one(submitted++);
        continue;
      }
      responses.push_back(inflight[harvest++].get());
    }
    for (; harvest < inflight.size(); ++harvest)
      responses.push_back(inflight[harvest].get());
  } else {
    // Open loop: Poisson-free fixed-rate arrivals, latency measured under
    // whatever backlog the rate builds up.
    const auto t0 = std::chrono::steady_clock::now();
    const double gap_s = rate > 0 ? 1.0 / rate : 0;
    for (long i = 0; i < total; ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration<double>(i * gap_s));
      submit_one(i);
    }
    for (auto& f : inflight) responses.push_back(f.get());
  }
  const double wall_s = sw.seconds();
  service.stop();

  // Latency percentiles via the same log2-bucket histogram the serving
  // metrics use (interpolated; p99_upper keeps the old bucket-ceiling
  // number for comparability across benchmark archives).
  obs::Histogram lat_h;
  long ok = 0, cached = 0, dropped = 0;
  std::map<std::string, long> backend_counts;
  for (const auto& r : responses) {
    if (serve::is_success(r.status)) {
      lat_h.observe(r.total_ns);
      ok += r.status == serve::Status::Ok;
      cached += r.status == serve::Status::OkCached;
      // Count the *effective* backend per success, so a run where
      // --fallback rewrote the engine shows up as "reference:123" rather
      // than pretending the configured backend served everything.
      ++backend_counts[r.backend.empty() ? "?" : r.backend];
    } else {
      ++dropped;
    }
  }
  std::string effective_backends;
  for (const auto& [name, count] : backend_counts) {
    if (!effective_backends.empty()) effective_backends += ",";
    effective_backends += name + ":" + std::to_string(count);
  }
  const double p50 = lat_h.quantile(0.50) / 1e6;
  const double p99 = lat_h.quantile(0.99) / 1e6;
  const double p99_upper = double(lat_h.quantile_upper_bound(0.99)) / 1e6;
  const double rps = double(responses.size()) / wall_s;
  const serve::ServiceStats st = service.stats();
  const double hit_rate =
      st.cache_hits + st.cache_misses > 0
          ? double(st.cache_hits) / double(st.cache_hits + st.cache_misses)
          : 0;

  std::printf("bench-serve: %ld requests (%s loop, %zu workers, policy %s): "
              "%s wall, %.0f req/s\n",
              total, mode.c_str(), so.workers,
              serve::overload_policy_name(so.policy),
              fmt_seconds(wall_s).c_str(), rps);
  std::printf("  latency p50 %.3f ms, p99 %.3f ms; %ld ok, %ld cached "
              "(hit rate %.1f%%), %ld dropped\n",
              p50, p99, ok, cached, 100.0 * hit_rate, dropped);
  if (!effective_backends.empty())
    std::printf("  effective backends: %s\n", effective_backends.c_str());
  std::printf("  %llu batches, %llu arena reuses / %llu allocations, "
              "%llu evictions\n",
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.arena_reuses),
              static_cast<unsigned long long>(st.arena_allocations),
              static_cast<unsigned long long>(st.cache_evictions));

  BenchJson json("serve", cfg);
  json.record()
      .set("mode", mode)
      .set("requests", total)
      .set("workers", so.workers)
      .set("queue_capacity", so.queue_capacity)
      .set("policy", serve::overload_policy_name(so.policy))
      .set("concurrency", concurrency)
      .set("rate", rate)
      .set("distinct", distinct)
      .set("wall_s", wall_s)
      .set("rps", rps)
      .set("p50_ms", p50)
      .set("p99_ms", p99)
      .set("p99_upper_ms", p99_upper)
      .set("ok", ok)
      .set("ok_cached", cached)
      .set("dropped", dropped)
      .set("backend", so.backend)
      .set("effective_backends", effective_backends)
      .set("rejected", std::int64_t(st.rejected))
      .set("shed", std::int64_t(st.shed))
      .set("expired", std::int64_t(st.expired))
      .set("cancelled", std::int64_t(st.cancelled))
      .set("errors", std::int64_t(st.errors))
      .set("cache_hit_rate", hit_rate)
      .set("cache_evictions", std::int64_t(st.cache_evictions))
      .set("batches", std::int64_t(st.batches))
      .set("arena_reuses", std::int64_t(st.arena_reuses))
      .set("arena_allocations", std::int64_t(st.arena_allocations))
      .set("degraded", std::int64_t(st.degraded))
      .set("retry_after", std::int64_t(st.retry_after))
      .set("retries", std::int64_t(st.retries))
      .set("hedges", std::int64_t(st.hedges))
      .set("hedge_wins", std::int64_t(st.hedge_wins))
      .set("fallbacks", std::int64_t(st.fallbacks));
  json.flush();
  return 0;
}

/// Runs NpdpServer in the foreground until SIGINT/SIGTERM (or the
/// optional --duration-ms elapses), then drains gracefully: stop
/// accepting, answer everything admitted, flush every socket.
int cmd_net_serve(cli::Flags& f) {
  net::ServerOptions no;
  no.port = 9377;
  ListenFlags listen;
  ServiceFlags svc;
  TraceFlags trace;
  std::string request_log;
  std::size_t log_capacity = 1 << 16;
  std::uint64_t log_sample = 1;
  listen.declare(f, &no);
  svc.declare(f);
  trace.declare(f);
  f.value("request-log FILE", &request_log, "write wide events to FILE")
      .value("log-capacity", &log_capacity, "request-log ring capacity")
      .value("log-sample", &log_sample, "keep ~1 in N wide events");
  if (!f.parse()) return 0;
  auto fault_scope = fault_scope_from(svc.fault_plan);  // outlives server
  // Started before the server so the reactor threads register their ring
  // buffers; exported after drain as one server-side trace.
  trace.start();
  if (!request_log.empty()) {
    obs::request_log().enable(log_capacity);
    obs::request_log().set_sample_every(std::max<std::uint64_t>(1, log_sample));
  }
  net::NpdpServer server(no, svc.options());
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "net-serve: %s\n", err.c_str());
    return 1;
  }
  if (!write_port_file(listen.port_file, server.port(), "net-serve")) return 1;
  std::printf("net-serve: listening on %s:%u (%d reactors, max frame %zu, "
              "idle timeout %lld ms)\n",
              no.host.c_str(), unsigned(server.port()), no.reactors,
              no.max_frame, static_cast<long long>(no.idle_timeout_ms));
  std::fflush(stdout);
  wait_for_stop(listen.duration_ms);
  std::printf("net-serve: draining...\n");
  std::fflush(stdout);
  server.stop();
  const net::ServerStats ns = server.stats();
  const serve::ServiceStats ss = server.service().stats();
  std::printf("net-serve: drained. %llu conns accepted, %llu frames in, "
              "%llu responses, %llu bad frames, %llu protocol errors, "
              "%llu dropped responses\n",
              static_cast<unsigned long long>(ns.accepted),
              static_cast<unsigned long long>(ns.frames_in),
              static_cast<unsigned long long>(ns.responses),
              static_cast<unsigned long long>(ns.frames_bad),
              static_cast<unsigned long long>(ns.protocol_errors),
              static_cast<unsigned long long>(ns.dropped_responses));
  std::printf("net-serve: service %llu submitted, %llu ok, %llu cached, "
              "%llu degraded, %llu rejected, %llu expired\n",
              static_cast<unsigned long long>(ss.submitted),
              static_cast<unsigned long long>(ss.completed),
              static_cast<unsigned long long>(ss.cache_hits),
              static_cast<unsigned long long>(ss.degraded),
              static_cast<unsigned long long>(ss.rejected),
              static_cast<unsigned long long>(ss.expired));
  if (!trace.finish("net-serve", "npdp-server")) return 1;
  if (!request_log.empty()) {
    std::ofstream os;
    if (!open_out(os, request_log, "net-serve")) return 1;
    const std::size_t written = obs::request_log().snapshot().size();
    obs::request_log().write_jsonl(os);
    std::printf("net-serve: %zu wide events written to %s "
                "(%llu appended, %llu sampled out)\n",
                written, request_log.c_str(),
                static_cast<unsigned long long>(
                    obs::request_log().appended()),
                static_cast<unsigned long long>(
                    obs::request_log().sampled_out()));
  }
  return 0;
}

/// Network load generator against a running net-serve (or net-route).
/// Closed loop by default; --rate R switches to open-loop fixed-rate
/// injection. --targets fans the connections out over several endpoints
/// round-robin. Writes BENCH_net.json (one aggregate record, plus one
/// per-target record when several targets are named) and exits nonzero if
/// any protocol or transport error occurred (the loopback smoke check in
/// verify.sh relies on that).
int cmd_net_bench(cli::Flags& f) {
  net::LoadGenOptions lo;
  lo.port = 9377;
  double duration_s = double(lo.duration_ms) / 1000;
  std::vector<std::string> semirings;
  for (const auto& [name, id] : kSemirings) semirings.push_back(name);
  semirings.push_back("mix");
  TraceFlags trace;
  BenchConfig cfg;
  client_flags(f, &lo.host, &lo.port, &lo.timeout_ms);
  f.value("targets", &lo.targets, "spread connections over these instead")
      .value("connect-timeout-ms", &lo.connect_timeout_ms, "dial bound (0: no)")
      .value("connections", &lo.connections, "client connections")
      .value("rate", &lo.rate, "offered req/s in total (0: closed loop)")
      .value("duration", &duration_s, "run length (s)")
      .value("requests", &lo.max_requests, "stop after this many (0: no cap)")
      .choice("mix", &lo.mix, {"solve", "fold", "parse", "chain", "bst", "mix"},
              "request kind")
      .value("size", &lo.size, "problem size of each request")
      .value("priority", &lo.priority, "request priority")
      .value("deadline-ms", &lo.deadline_ms, "per-request deadline (0: none)")
      .value("tenant", &lo.tenant, "QoS tenant id")
      .value("backend NAME", &lo.backend, "backend solve requests ask for")
      .choice("semiring", &lo.semiring, semirings, "of solves (min-plus)")
      .value("seed", &lo.seed, "request stream seed")
      .value("distinct", &lo.distinct, "distinct computations per kind")
      .value("json-dir DIR", &cfg.json_dir, "where BENCH_net.json goes");
  trace.declare(f);
  f.value("trace-sample", &lo.trace_sample, "share of traces sampled");
  if (!f.parse()) return 0;
  if (lo.tenant >= serve::kMaxTenants)
    throw UsageError("--tenant out of range (0.." +
                     std::to_string(serve::kMaxTenants - 1) + ")");
  lo.duration_ms = static_cast<std::int64_t>(duration_s * 1000);
  lo.trace = trace.on() || f.given("trace-sample");
  trace.start();

  net::LoadGenResult r;
  std::string err;
  if (!net::run_loadgen(lo, &r, &err)) {
    std::fprintf(stderr, "net-bench: %s\n", err.c_str());
    return 1;
  }
  // Percentiles go through the same log2-bucket histogram the server's
  // metrics use, so BENCH_net.json and the live stats plane agree to
  // within one bucket. p99 is interpolated; p99_upper is the bucket
  // ceiling (the pre-interpolation behaviour, kept for comparability).
  obs::Histogram lat_h;
  for (const double ms : r.latencies_ms)
    lat_h.observe(static_cast<std::int64_t>(ms * 1e6));
  const double p50 = lat_h.quantile(0.50) / 1e6;
  const double p90 = lat_h.quantile(0.90) / 1e6;
  const double p99 = lat_h.quantile(0.99) / 1e6;
  const double p99_upper = double(lat_h.quantile_upper_bound(0.99)) / 1e6;
  const double pmax = lat_h.count() > 0 ? double(lat_h.max()) / 1e6 : 0;
  // Coordinated-omission-corrected view: latency from the scheduled send
  // instant. Identical to the above in closed loop; under open-loop
  // overload it is the honest number.
  obs::Histogram corr_h;
  for (const double ms : r.corrected_latencies_ms)
    corr_h.observe(static_cast<std::int64_t>(ms * 1e6));
  const double cp50 = corr_h.quantile(0.50) / 1e6;
  const double cp99 = corr_h.quantile(0.99) / 1e6;
  const char* mode = lo.rate > 0 ? "open" : "closed";
  std::printf("net-bench: %llu sent, %llu replies over %d conns (%s loop) "
              "in %.2f s: %.0f req/s\n",
              static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.replies), lo.connections,
              mode, r.elapsed_s, r.achieved_rps);
  std::printf("  latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (upper "
              "%.3f ms), max %.3f ms\n",
              p50, p90, p99, p99_upper, pmax);
  if (lo.rate > 0)
    std::printf("  corrected (from scheduled send) p50 %.3f ms, p99 %.3f "
                "ms; %llu intervals slipped\n",
                cp50, cp99, static_cast<unsigned long long>(r.slipped));
  std::printf("  %llu ok, %llu cached, %llu degraded, %llu rejected, %llu "
              "shed, %llu expired, %llu cancelled, %llu retry-after, %llu "
              "errors\n",
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.cached),
              static_cast<unsigned long long>(r.degraded),
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.expired),
              static_cast<unsigned long long>(r.cancelled),
              static_cast<unsigned long long>(r.retry_after),
              static_cast<unsigned long long>(r.errors));
  if (r.proto_errors + r.transport_errors > 0)
    std::printf("  !! %llu protocol errors, %llu transport errors\n",
                static_cast<unsigned long long>(r.proto_errors),
                static_cast<unsigned long long>(r.transport_errors));
  if (r.per_target.size() > 1)
    for (const auto& t : r.per_target)
      std::printf("  [%s] %llu sent, %llu replies: %llu ok, %llu cached, "
                  "%llu errors\n",
                  t.target.c_str(),
                  static_cast<unsigned long long>(t.sent),
                  static_cast<unsigned long long>(t.replies),
                  static_cast<unsigned long long>(t.ok),
                  static_cast<unsigned long long>(t.cached),
                  static_cast<unsigned long long>(t.errors));

  BenchJson json("net", cfg);
  json.record()
      .set("mode", mode)
      .set("connections", lo.connections)
      .set("rate", lo.rate)
      .set("duration_s", double(lo.duration_ms) / 1000)
      .set("mix", lo.mix)
      .set("semiring", lo.semiring.empty() ? "min-plus" : lo.semiring)
      .set("size", std::int64_t(lo.size))
      .set("deadline_ms", std::int64_t(lo.deadline_ms))
      .set("tenant", std::int64_t(lo.tenant))
      .set("sent", std::int64_t(r.sent))
      .set("replies", std::int64_t(r.replies))
      .set("elapsed_s", r.elapsed_s)
      .set("rps", r.achieved_rps)
      .set("p50_ms", p50)
      .set("p90_ms", p90)
      .set("p99_ms", p99)
      .set("p99_upper_ms", p99_upper)
      .set("max_ms", pmax)
      .set("corrected_p50_ms", cp50)
      .set("corrected_p99_ms", cp99)
      .set("slipped", std::int64_t(r.slipped))
      .set("ok", std::int64_t(r.ok))
      .set("ok_cached", std::int64_t(r.cached))
      .set("degraded", std::int64_t(r.degraded))
      .set("rejected", std::int64_t(r.rejected))
      .set("shed", std::int64_t(r.shed))
      .set("expired", std::int64_t(r.expired))
      .set("cancelled", std::int64_t(r.cancelled))
      .set("retry_after", std::int64_t(r.retry_after))
      .set("errors", std::int64_t(r.errors))
      .set("proto_errors", std::int64_t(r.proto_errors))
      .set("transport_errors", std::int64_t(r.transport_errors));
  // One record per endpoint when the run fans out over --targets, so the
  // router bench can compare per-replica status mixes from one file.
  if (r.per_target.size() > 1)
    for (const auto& t : r.per_target)
      json.record()
          .set("mode", "per_target")
          .set("target", t.target)
          .set("sent", std::int64_t(t.sent))
          .set("replies", std::int64_t(t.replies))
          .set("ok", std::int64_t(t.ok))
          .set("ok_cached", std::int64_t(t.cached))
          .set("degraded", std::int64_t(t.degraded))
          .set("rejected", std::int64_t(t.rejected))
          .set("shed", std::int64_t(t.shed))
          .set("expired", std::int64_t(t.expired))
          .set("cancelled", std::int64_t(t.cancelled))
          .set("retry_after", std::int64_t(t.retry_after))
          .set("errors", std::int64_t(t.errors))
          .set("proto_errors", std::int64_t(t.proto_errors))
          .set("transport_errors", std::int64_t(t.transport_errors));
  json.flush();
  if (!trace.finish("net-bench", "npdp-client")) return 1;
  return r.clean() ? 0 : 1;
}

/// Runs NpdpRouter in the foreground until SIGINT/SIGTERM (or the
/// optional --duration-ms elapses), then drains gracefully. Mirrors
/// cmd_net_serve: --port-file appears only after the bind succeeded.
int cmd_net_route(cli::Flags& f) {
  router::RouterOptions ro;
  ro.net.port = 9378;
  ListenFlags listen;
  TraceFlags trace;
  f.value("replicas", &ro.replicas, "the net-serve replicas").required();
  listen.declare(f, &ro.net);
  f.value("vnodes", &ro.vnodes, "ring points per replica")
      .value("max-attempts", &ro.max_attempts, "placements per request")
      .value("probe-interval-ms", &ro.probe_interval_ms, "health probe period")
      .value("probe-timeout-ms", &ro.probe_timeout_ms, "health probe bound")
      .value("connect-timeout-ms", &ro.connect_timeout_ms, "upstream dial");
  trace.declare(f);
  if (!f.parse()) return 0;
  trace.start();
  router::NpdpRouter router(ro);
  std::string err;
  if (!router.start(&err)) {
    std::fprintf(stderr, "net-route: %s\n", err.c_str());
    return 1;
  }
  if (!write_port_file(listen.port_file, router.port(), "net-route")) return 1;
  std::printf("net-route: listening on %s:%u, %zu replicas (%d vnodes "
              "each, probe every %lld ms)\n",
              ro.net.host.c_str(), unsigned(router.port()),
              ro.replicas.size(), ro.vnodes,
              static_cast<long long>(ro.probe_interval_ms));
  for (const auto& ep : ro.replicas)
    std::printf("  replica %s -> %s:%u\n", ep.name.c_str(), ep.host.c_str(),
                unsigned(ep.port));
  std::fflush(stdout);
  wait_for_stop(listen.duration_ms);
  std::printf("net-route: draining...\n");
  std::fflush(stdout);
  router.stop();
  const router::RouterStats rs = router.stats();
  const net::FrontEndStats fs = router.net_stats();
  std::printf("net-route: drained. %llu conns accepted, %llu frames in, "
              "%llu forwarded, %llu replies, %llu requeued, %llu "
              "synthesized (%llu no-replica, %llu exhausted)\n",
              static_cast<unsigned long long>(fs.accepted),
              static_cast<unsigned long long>(fs.frames_in),
              static_cast<unsigned long long>(rs.forwarded),
              static_cast<unsigned long long>(rs.replies),
              static_cast<unsigned long long>(rs.requeued),
              static_cast<unsigned long long>(rs.synthesized),
              static_cast<unsigned long long>(rs.no_replica),
              static_cast<unsigned long long>(rs.exhausted));
  std::printf("net-route: %llu replica-down events, %llu probe failures\n",
              static_cast<unsigned long long>(rs.replica_down),
              static_cast<unsigned long long>(rs.probe_failures));
  for (const auto& h : router.health())
    std::printf("  replica %s: %s%s, %llu forwarded, %llu replies, "
                "%llu disconnects\n",
                h.name.c_str(), h.in_ring ? "in ring" : "out of ring",
                h.draining ? " (draining)" : "",
                static_cast<unsigned long long>(h.forwarded),
                static_cast<unsigned long long>(h.replies),
                static_cast<unsigned long long>(h.disconnects));
  if (!trace.finish("net-route", "npdp-router")) return 1;
  return 0;
}

/// One peer process of a distributed solve (docs/distributed.md). All
/// peers must be launched with the same --peers list and workload flags;
/// each passes its own --rank. The instance is the same pure generated
/// workload `npdp solve` uses, so a --save'd table from any rank can be
/// cmp'd byte-for-byte against `npdp solve --save` output — that is
/// exactly what tests/dist_plane.sh does.
int cmd_dist_solve(cli::Flags& f) {
  std::uint32_t rank = 0;
  std::vector<dist::PeerEndpoint> peers;
  Workload w;
  dist::DistOptions opts;
  opts.group.connect_timeout_ms = 10000;
  std::optional<std::uint16_t> stats_port;
  std::string port_file, save;
  f.value("rank", &rank, "this peer's index in --peers").required()
      .value("peers", &peers, "every peer, same order on all").required();
  w.declare(f);
  f.value("connect-timeout-ms", &opts.group.connect_timeout_ms, "mesh budget")
      .value("stall-timeout-ms", &opts.stall_timeout_ms, "abort a stall")
      .value("stats-port", &stats_port, "serve stats for npdp top (0: any)")
      .value("port-file FILE", &port_file, "write the bound stats port to FILE")
      .value("save FILE", &save, "write the solved table to FILE");
  if (!f.parse()) return 0;
  if (rank >= peers.size())
    throw UsageError("--rank must name an entry in --peers (0.." +
                     std::to_string(peers.size() - 1) + ")");
  const NpdpInstance<float> inst = w.instance();
  opts.tuning = w.tuning;
  // The hello frame already carries n/block/semiring explicitly; the hash
  // covers what it cannot: the workload seed. A peer launched with a
  // different --seed fails the handshake instead of assembling garbage.
  opts.config_hash = fnv1a(&w.seed, sizeof(w.seed));

  // Building the group registers the net.peer.* counters, so the stats
  // port below shows a peer from its first poll.
  dist::PeerGroup group(rank, peers, opts.group);

  // Optional ordinary-protocol stats port so `npdp top` can watch the
  // net.peer.* counters of a live peer.
  std::unique_ptr<net::EpollFrontEnd> stats_fe;
  if (stats_port) {
    std::string err;
    stats_fe = net::start_stats_port("127.0.0.1", *stats_port, &err);
    if (stats_fe == nullptr) {
      std::fprintf(stderr, "dist-solve: --stats-port: %s\n", err.c_str());
      return 1;
    }
    std::printf("rank %u stats on 127.0.0.1:%u\n", rank,
                unsigned(stats_fe->port()));
    if (!write_port_file(port_file, stats_fe->port(), "dist-solve")) return 1;
  }

  BlockedTriangularMatrix<float> mat(inst.n, opts.tuning.block_side,
                                     semiring_zero<float>(w.semiring));
  dist::DistStats ds;
  Stopwatch sw;
  dist::solve_distributed_into(mat, inst, group, opts, &ds);
  const double s = sw.seconds();

  std::printf(
      "rank %u/%zu solved n=%lld (%s, block %lld, %zu threads) in %s\n",
      rank, peers.size(), static_cast<long long>(inst.n),
      std::string(semiring_name(w.semiring)).c_str(),
      static_cast<long long>(opts.tuning.block_side), opts.tuning.threads,
      fmt_seconds(s).c_str());
  std::printf("  owned %lld  computed %lld  received %lld  "
              "sent %.2f MiB  received %.2f MiB  stalled %s\n",
              static_cast<long long>(ds.blocks_owned),
              static_cast<long long>(ds.blocks_computed),
              static_cast<long long>(ds.blocks_received),
              double(ds.bytes_sent) / (1 << 20),
              double(ds.bytes_received) / (1 << 20),
              fmt_seconds(ds.stall_seconds).c_str());
  std::printf("d[0][n-1] = %g\n", double(mat.at(0, inst.n - 1)));

  if (!save.empty()) {
    save_table_file(save, mat);
    std::printf("saved to %s\n", save.c_str());
  }
  return 0;
}

struct Command {
  const char* name;
  int (*run)(cli::Flags&);
  const char* summary;
};

const Command kCommands[] = {
    {"solve", cmd_solve, "solve one seeded instance natively"},
    {"backends", cmd_backends, "list the solver backends and their health"},
    {"check-trace", cmd_check_trace, "validate a --trace file"},
    {"merge-traces", cmd_merge_traces, "merge client and server traces"},
    {"info", cmd_info, "describe a table written by solve --save"},
    {"fold", cmd_fold, "fold an RNA sequence (Zuker minimum free energy)"},
    {"parse", cmd_parse, "CYK-parse a word"},
    {"simulate", cmd_simulate, "time a solve on the simulated Cell blade"},
    {"cluster", cmd_cluster, "time a solve on a simulated cluster"},
    {"model", cmd_model, "the paper's section V performance model"},
    {"dist-solve", cmd_dist_solve, "one peer of a multi-process solve"},
    {"serve", cmd_serve, "run the in-process solve service on a stream"},
    {"bench-serve", cmd_bench_serve, "load-test the in-process service"},
    {"net-serve", cmd_net_serve, "TCP front-end over the solve service"},
    {"net-route", cmd_net_route, "consistent-hash router over net-serve"},
    {"net-bench", cmd_net_bench, "network load generator"},
    {"top", cmd_top, "live stats of a net-serve, net-route or dist-solve peer"},
};

/// Every subcommand with the flags it declares.
void usage() {
  std::printf("usage: npdp <subcommand> [--flag [value] ...]\n");
  for (const Command& c : kCommands) {
    cli::Flags f(c.name);
    c.run(f);
    std::printf("\nnpdp %s: %s\n%s", c.name, c.summary, f.usage().c_str());
  }
  std::printf("\nexit codes: 0 success, 1 runtime error, 2 unknown "
              "subcommand, 3 bad arguments\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The coordinator backend lives in the dist library (backend cannot link
  // dist without a cycle), so the binary that links both registers it.
  dist::register_distributed_backend();
  const std::string cmd = argc > 1 ? argv[1] : "";
  for (const Command& c : kCommands) {
    if (cmd != c.name) continue;
    cli::Flags f(cmd, {argv + 2, argv + argc});
    try {
      return c.run(f);
    } catch (const cli::UsageError& e) {
      std::fprintf(stderr, "bad arguments: %s\n\nnpdp %s flags:\n%s",
                   e.what(), c.name, f.usage().c_str());
      return 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc > 1) std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  usage();
  return 2;
}

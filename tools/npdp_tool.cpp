// npdp — command-line front end to the cellnpdp library.
//
//   npdp solve     --n 4096 [--backend blocked-parallel] [--kernel simd128]
//                  [--block 64] [--threads 8] [--seed 1] [--deadline-ms 50]
//                  [--semiring min-plus|max-plus|counting|viterbi-log]
//                  [--maxplus] [--save table.bin] [--retries 4]
//                  [--fault-plan plan.json] [--fault-log fired.json]
//                  [--trace out.json] [--metrics out.json] [--report]
//   npdp backends  list the registered solver backends, capabilities, and
//                  health (circuit-breaker state)
//   npdp check-trace --file out.json [--min-workers 1] [--expect-tasks N]
//   npdp info      --file table.bin
//   npdp fold      --seq ACGU... | --random 500 [--seed 7] [--threads 4]
//   npdp parse     --parens "(()())" | --anbn aaabbb
//   npdp simulate  --n 4096 [--spes 16] [--block 88] [--dp] [--trace out.csv]
//   npdp cluster   --n 4096 [--nodes 8] [--bw-gbps 3] [--lat-us 10]
//   npdp dist-solve --rank R --peers host:port,host:port,... [--n 4096]
//                  [--seed 1] [--block 64] [--kernel simd128] [--threads 1]
//                  [--semiring min-plus|max-plus|counting|viterbi-log]
//                  [--save table.bin] [--stats-port 0] [--port-file FILE]
//                  [--connect-timeout-ms 10000] [--stall-timeout-ms 60000]
//                  (one peer of a P-process distributed solve; every peer
//                  must pass the same --peers list, --n, --seed, --block
//                  and --semiring, and its own --rank; docs/distributed.md)
//   npdp model     --n 4096 [--spes 16]
//   npdp serve     --requests <file|-> [--workers 4] [--queue 256]
//                  [--policy block|reject|shed] [--cache 1024] [--batch 8]
//                  [--backend blocked-serial] [--retries 3] [--breaker]
//                  [--fallback reference] [--hedge] [--fault-plan plan.json]
//   npdp bench-serve --requests 1000 [--workers 4] [--mode closed|open]
//                  [--concurrency 8] [--rate 500] [--distinct 25]
//                  [--policy block] [--json-dir .] [--backend blocked-serial]
//                  [--retries 3] [--breaker] [--fallback NAME] [--hedge]
//                  [--fault-plan plan.json]
//   npdp net-serve [--host 127.0.0.1] [--port 9377] [--reactors 2]
//                  [--max-frame 1048576] [--idle-timeout-ms 30000]
//                  [--drain-timeout-ms 5000] [--port-file FILE]
//                  [--duration-ms 0] [--trace FILE] [--request-log FILE]
//                  [--log-sample N] + all serve service flags, including
//                  [--tenants "ID:name=N:rate=R:burst=B:weight=W:
//                  cache-kb=K/ID2:..."] for per-tenant QoS policies
//                  (runs until SIGINT/SIGTERM, then drains gracefully)
//   npdp net-bench --port 9377 [--host 127.0.0.1] [--connections 4]
//                  [--targets host:port,host:port,...] [--rate 0]
//                  [--duration 2] [--requests 0] [--mix chain]
//                  [--semiring NAME|mix] [--size 32] [--distinct 16]
//                  [--deadline-ms 0] [--tenant 0]
//                  [--priority 0] [--backend NAME] [--seed 1] [--json-dir .]
//                  [--connect-timeout-ms 0] [--trace FILE] [--trace-sample R]
//                  (closed loop when --rate 0; writes BENCH_net.json with
//                  per-target status counts when --targets names several;
//                  open-loop runs also report coordinated-omission-
//                  corrected p50/p99 and the count of slipped intervals)
//   npdp net-route --replicas [name=]host:port,... [--host 127.0.0.1]
//                  [--port 9378] [--reactors 2] [--vnodes 64]
//                  [--max-attempts 3] [--probe-interval-ms 200]
//                  [--probe-timeout-ms 1000] [--connect-timeout-ms 1000]
//                  [--max-frame 1048576] [--idle-timeout-ms 30000]
//                  [--drain-timeout-ms 5000] [--port-file FILE]
//                  [--duration-ms 0] [--trace FILE]
//                  (consistent-hash router over net-serve replicas;
//                  runs until SIGINT/SIGTERM, then drains gracefully)
//   npdp top       --port 9377 [--host 127.0.0.1] [--interval-ms 1000]
//                  [--iterations 0] [--once] [--prom]
//                  (live stats view over the StatsRequest wire frame, with
//                  a per-tenant QoS table when the server runs tenanted;
//                  --prom dumps Prometheus text exposition instead)
//   npdp merge-traces --out merged.json --client a.json --server b.json
//   npdp check-trace --file out.json --chains [--min-chain-frac 0.99]
//                  (request-chain mode: validates trace-id correlation)
//
// Exit codes: 0 success, 1 runtime error, 2 unknown subcommand,
// 3 bad arguments (missing/duplicate/malformed flags, unknown --backend).
#include <algorithm>
#include <charconv>
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
#include "cluster/cluster_sim.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/solve.hpp"
#include "dist/in_process.hpp"
#include "dist/stats_endpoint.hpp"
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

namespace {

/// Bad command-line arguments: missing, duplicate, or malformed flags.
/// Reported on stderr and mapped to exit code 3 (a distinct code from the
/// unknown-subcommand 2, so scripts can tell the two apart).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses all of `s` as a number; false when nothing parses, anything is
/// left over, or the value is out of range for N.
template <class N>
bool parse_whole(const std::string& s, N* out) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && p == end;
}

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) > 0; }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  /// Value of a required flag; UsageError when absent.
  std::string need(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) throw UsageError("missing required flag --" + k);
    return it->second;
  }
  long num(const std::string& k, long dflt) const { return number(k, dflt); }
  double real(const std::string& k, double dflt) const {
    return number(k, dflt);
  }

 private:
  /// Value of a numeric flag, `dflt` when absent; UsageError when the
  /// value is not wholly a number of type N.
  template <class N>
  N number(const std::string& k, N dflt) const {
    auto it = kv.find(k);
    if (it == kv.end()) return dflt;
    N v{};
    if (!parse_whole(it->second, &v))
      throw UsageError("--" + k + ": '" + it->second + "' is not a number");
    return v;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (a.kv.count(key) > 0)
      throw UsageError("duplicate flag --" + key);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = "1";
    }
  }
  return a;
}

KernelKind kernel_from(const std::string& s) {
  if (s == "scalar") return KernelKind::Scalar;
  if (s == "simd256") return KernelKind::Wide;
  return KernelKind::Native;
}

/// Registry lookup with the CLI's error convention: an unknown name is a
/// usage error (exit 3), with the known names in the message.
const backend::SolverBackend& backend_from(const std::string& name) {
  try {
    return backend::require_backend(name);
  } catch (const backend::UnknownBackendError& e) {
    throw UsageError(e.what());
  }
}

/// --fault-plan FILE: parses the plan and installs it as the process-wide
/// fault hook for the scope's lifetime (null when the flag is absent).
/// Malformed plans are usage errors (exit 3).
std::unique_ptr<resilience::FaultInjectionScope> fault_scope_from(
    const Args& a) {
  if (!a.has("fault-plan")) return nullptr;
  resilience::FaultPlan plan;
  std::string err;
  if (!resilience::fault_plan_from_file(a.get("fault-plan"), &plan, &err))
    throw UsageError("--fault-plan: " + err);
  return std::make_unique<resilience::FaultInjectionScope>(std::move(plan));
}

/// --fault-log FILE: dumps the fired-fault log (the replay-determinism
/// artifact) after a faulty run. Returns false on I/O failure.
bool write_fault_log(const Args& a, resilience::FaultInjectionScope* scope) {
  if (!a.has("fault-log") || scope == nullptr) return true;
  std::ofstream os(a.get("fault-log"));
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 a.get("fault-log").c_str());
    return false;
  }
  scope->injector().write_log(os);
  return true;
}

int cmd_solve(const Args& a) {
  NpdpInstance<float> inst;
  inst.n = a.num("n", 1024);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(a.num("seed", 1));
  SemiringId sr = SemiringId::MinPlus;
  if (a.has("semiring") &&
      !semiring_from_name(a.get("semiring"), &sr))
    throw UsageError("unknown semiring '" + a.get("semiring") +
                     "' (min-plus|max-plus|counting|viterbi-log)");
  // --maxplus predates --semiring and stays as an alias; the engine runs
  // the native max-plus instantiation either way.
  if (a.has("maxplus")) sr = SemiringId::MaxPlus;
  inst.semiring = sr;
  inst.init = [seed, sr](index_t i, index_t j) {
    return semiring_init_value<float>(sr, seed, i, j);
  };
  NpdpOptions opts;
  opts.block_side = a.num("block", 64);
  opts.kernel = kernel_from(a.get("kernel", "simd128"));
  opts.threads = static_cast<std::size_t>(a.num("threads", 1));

  const std::string backend_name = a.get(
      "backend", opts.threads > 1 ? "blocked-parallel" : "blocked-serial");
  const backend::SolverBackend* be = &backend_from(backend_name);

  const bool tracing = a.has("trace");
  const bool want_report = a.has("report");
  if (tracing)
    obs::Tracer::instance().start(
        static_cast<std::size_t>(a.num("trace-buf", 1 << 18)));

  // Activated before the solve so every fault site below sees the plan;
  // kept alive until after the log is written.
  auto fault_scope = fault_scope_from(a);

  Stopwatch sw;
  SolveStats ss;
  SolveStats* ssp = (want_report || a.has("metrics")) ? &ss : nullptr;
  ExecutionContext ctx;
  ctx.tuning = opts;
  ctx.stats = ssp;
  if (a.has("deadline-ms"))
    ctx.cancel =
        CancelToken::after(std::chrono::milliseconds(a.num("deadline-ms", 0)));
  if (a.has("retries"))
    ctx.retry.max_attempts =
        std::max(1, static_cast<int>(a.num("retries", 1)));

  double value = 0, sim_s = 0;
  std::shared_ptr<BlockedTriangularMatrix<float>> table;
  {
    const backend::BackendResult r = be->solve(inst, ctx);
    if (r.status == SolveStatus::Cancelled) {
      if (tracing) obs::Tracer::instance().stop();
      write_fault_log(a, fault_scope.get());
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
  if (tracing) obs::Tracer::instance().stop();
  std::printf("solved n=%lld (%s: %s, %s, block %lld, %zu threads) in %s\n",
              static_cast<long long>(inst.n), backend_name.c_str(),
              std::string(kernel_kind_name(opts.kernel)).c_str(),
              std::string(semiring_name(sr)).c_str(),
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
    if (!write_fault_log(a, fault_scope.get())) return 1;
    if (a.has("fault-log"))
      std::printf("fault log written to %s\n", a.get("fault-log").c_str());
  }
  if (a.has("save")) {
    if (table == nullptr)
      throw UsageError("--save needs a backend producing a blocked table "
                       "(backend '" + backend_name + "' does not)");
    save_table_file(a.get("save"), *table);
    std::printf("saved to %s\n", a.get("save").c_str());
  }

  if (tracing) {
    const long events = obs::export_chrome_trace(a.get("trace"));
    if (events < 0) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   a.get("trace").c_str());
      return 1;
    }
    std::printf("trace written to %s (%ld events; open in "
                "https://ui.perfetto.dev)\n",
                a.get("trace").c_str(), events);
    std::uint64_t dropped = 0;
    for (const auto& t : obs::Tracer::instance().snapshot())
      dropped += t.dropped;
    if (dropped > 0)
      std::printf("warning: %llu events dropped (ring full); rerun with a "
                  "larger --trace-buf\n",
                  static_cast<unsigned long long>(dropped));
  }
  if (a.has("metrics")) {
    // Fold the solve's work counters into the registry before dumping so
    // the snapshot carries engine phases alongside scheduler metrics.
    obs::metrics().counter("engine.kernel_calls").add(ss.engine.kernel_calls);
    obs::metrics().counter("engine.corner_relax").add(ss.engine.corner_relax);
    obs::metrics().counter("engine.diag_relax").add(ss.engine.diag_relax);
    obs::metrics()
        .counter("engine.cells_finalized")
        .add(ss.engine.cells_finalized);
    std::ofstream os(a.get("metrics"));
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   a.get("metrics").c_str());
      return 1;
    }
    obs::metrics().write_json(os);
    std::printf("metrics written to %s\n", a.get("metrics").c_str());
  }
  if (want_report) {
    obs::UtilizationReport rep;
    rep.wall_seconds = ss.wall_seconds;
    rep.worker_busy = ss.worker_busy;
    if (tracing)
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
int cmd_backends(const Args&) {
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

/// Validates a Chrome trace-event JSON file written by --trace: parses
/// it, checks every span is well-formed, and counts worker lanes and
/// scheduling-block task spans. Used by verify.sh so tracing cannot rot
/// silently.
int cmd_check_trace(const Args& a) {
  const std::string path = a.need("file");
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "check-trace: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  JsonValue root;
  std::string err;
  if (!json_parse(text, root, &err)) {
    std::fprintf(stderr, "check-trace: malformed JSON: %s\n", err.c_str());
    return 1;
  }
  if (!root.is_object() || !root.has("traceEvents") ||
      !root.at("traceEvents").is_array()) {
    std::fprintf(stderr, "check-trace: missing traceEvents array\n");
    return 1;
  }
  if (a.has("chains")) {
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
    const double min_frac = a.real("min-chain-frac", 0.99);
    if (frac < min_frac) {
      std::fprintf(stderr,
                   "check-trace: only %.1f%% of chains complete "
                   "(need >= %.1f%%)\n",
                   100.0 * frac, 100.0 * min_frac);
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
  const long min_workers = a.num("min-workers", 1);
  if (long(spans_per_tid.size()) < min_workers) {
    std::fprintf(stderr,
                 "check-trace: expected >= %ld worker lanes, found %zu\n",
                 min_workers, spans_per_tid.size());
    return 1;
  }
  if (a.has("expect-tasks") && tasks != a.num("expect-tasks", -1)) {
    std::fprintf(stderr, "check-trace: expected %ld task spans, found %ld\n",
                 a.num("expect-tasks", -1), tasks);
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

/// Parses one Chrome trace JSON file; UsageError when unreadable,
/// plain error (exit 1) semantics left to the caller via the bool.
bool load_trace_json(const std::string& path, JsonValue* out) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "merge-traces: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  std::string err;
  if (!json_parse(text, *out, &err)) {
    std::fprintf(stderr, "merge-traces: %s: malformed JSON: %s\n",
                 path.c_str(), err.c_str());
    return false;
  }
  return true;
}

/// Merges a client-side and a server-side Chrome trace into one file,
/// each on its own pid track; spans correlate by trace_id (args.a0).
int cmd_merge_traces(const Args& a) {
  const std::string out_path = a.need("out");
  JsonValue client, server;
  if (!load_trace_json(a.need("client"), &client)) return 1;
  if (!load_trace_json(a.need("server"), &server)) return 1;
  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "merge-traces: cannot write %s\n", out_path.c_str());
    return 1;
  }
  obs::merge_chrome_traces(os, {&client, &server});
  long events = 0;
  for (const JsonValue* t : {&client, &server})
    if (t->is_object() && t->has("traceEvents") &&
        t->at("traceEvents").is_array())
      events += long(t->at("traceEvents").arr.size());
  std::printf("merge-traces: %ld events -> %s\n", events, out_path.c_str());
  return 0;
}

// SIGINT/SIGTERM land here; net-serve and top poll the flag and drain.
volatile std::sig_atomic_t g_stop_requested = 0;
extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

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

/// Live terminal view of a running net-serve: polls the binary
/// StatsRequest/StatsResponse frame and renders rps (from counter
/// deltas), per-stage latency quantiles, cache hit rate, shed/degrade
/// counts, queue depth and breaker state. --prom switches the output to
/// Prometheus text exposition (scrape-ready), --once exits after one
/// poll. Counter deltas are monotone because the server snapshots the
/// whole registry in one pass.
int cmd_top(const Args& a) {
  net::NpdpClient cli;
  std::string err;
  const std::string host = a.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(a.num("port", 9377));
  if (!cli.connect(host, port, &err)) {
    std::fprintf(stderr, "top: %s\n", err.c_str());
    return 1;
  }
  const bool once = a.has("once");
  const bool prom = a.has("prom");
  const long interval_ms = std::max(50L, a.num("interval-ms", 1000));
  const long iterations = once ? 1 : a.num("iterations", 0);
  const int timeout_ms = static_cast<int>(a.num("timeout-ms", 5000));

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

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
      // Responded-request rate from serve.status.* counter deltas; the
      // first poll has no baseline, so it reports totals since start.
      std::int64_t responded = 0, responded_prev = 0;
      for (const auto& [name, v] : snap.counters)
        if (name.rfind("serve.status.", 0) == 0) responded += v;
      if (have_prev)
        for (const auto& [name, v] : prev.counters)
          if (name.rfind("serve.status.", 0) == 0) responded_prev += v;
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
      if (have_prev)
        std::printf("  rps %.1f (responded %lld, +%lld)\n", rps,
                    static_cast<long long>(responded),
                    static_cast<long long>(responded - responded_prev));
      else
        std::printf("  responded %lld since start\n",
                    static_cast<long long>(responded));
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
      // dist-solve peer's stats endpoint exports. The per-source
      // breakdown comes from the labeled net.peer.blocks_received{peer=K}
      // counters; totals print even when no labeled rows exist yet.
      const std::int64_t pblk_sent =
          snap.counter_or("net.peer.blocks_sent", 0);
      const std::int64_t pblk_recv =
          snap.counter_or("net.peer.blocks_received", 0);
      if (pblk_sent + pblk_recv > 0) {
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

int cmd_info(const Args& a) {
  const std::string path = a.need("file");
  const auto table = load_blocked_file<float>(path);
  std::printf("%s: blocked table, n=%lld, block side %lld (%s), %s total\n",
              path.c_str(), static_cast<long long>(table.size()),
              static_cast<long long>(table.block_side()),
              fmt_bytes(double(table.block_bytes())).c_str(),
              fmt_bytes(double(table.total_cells()) * 4).c_str());
  std::printf("d[0][n-1] = %g\n", double(table.at(0, table.size() - 1)));
  return 0;
}

int cmd_fold(const Args& a) {
  std::vector<zuker::Base> seq;
  if (a.has("seq")) {
    seq = zuker::parse_sequence(a.get("seq"));
  } else {
    seq = zuker::random_sequence(a.num("random", 300),
                                 static_cast<std::uint64_t>(a.num("seed", 7)));
  }
  zuker::FoldOptions fo;
  fo.threads = static_cast<std::size_t>(a.num("threads", 1));
  zuker::ZukerFolder folder({}, fo);
  Stopwatch sw;
  const auto r = folder.fold(seq);
  std::printf("%s\n%s\n", zuker::bases_to_string(seq).c_str(),
              r.structure.c_str());
  std::printf("MFE %.2f, %zu pairs, %s\n", double(r.mfe), r.pairs.size(),
              fmt_seconds(sw.seconds()).c_str());
  return 0;
}

int cmd_parse(const Args& a) {
  cyk::Grammar g = cyk::balanced_parens_grammar();
  std::string alphabet = "()";
  std::string text = a.get("parens", "(()())");
  if (a.has("anbn")) {
    g = cyk::anbn_grammar();
    alphabet = "ab";
    text = a.get("anbn");
  }
  cyk::CykParser parser(g);
  const auto r = parser.parse(cyk::tokens_from_string(text, alphabet));
  std::printf("%s: %s", text.c_str(),
              r.accepted() ? "accepted" : "rejected");
  if (r.accepted()) std::printf(" (cost %.1f)", double(r.cost));
  std::printf("\n");
  return r.accepted() ? 0 : 1;
}

int cmd_simulate(const Args& a) {
  CellConfig cfg = qs20();
  cfg.num_spes = static_cast<int>(a.num("spes", 16));
  CellSimOptions o;
  o.block_side = a.num("block", a.has("dp") ? 64 : 88);
  o.record_trace = a.has("trace");
  auto report = [&](auto tag) {
    using T = decltype(tag);
    NpdpInstance<T> inst;
    inst.n = a.num("n", 4096);
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
    if (a.has("trace")) {
      std::ofstream os(a.get("trace"));
      r.write_trace_csv(os);
      std::printf("trace written to %s (%zu events)\n",
                  a.get("trace").c_str(), r.trace.size());
    }
  };
  if (a.has("dp")) {
    report(double{});
  } else {
    report(float{});
  }
  return 0;
}

int cmd_cluster(const Args& a) {
  NpdpInstance<float> inst;
  inst.n = a.num("n", 4096);
  inst.init = [](index_t, index_t) { return 1.0f; };
  ClusterConfig cfg;
  cfg.nodes = static_cast<int>(a.num("nodes", 8));
  cfg.link_bandwidth = a.real("bw-gbps", 3.0) * 1e9;
  cfg.link_latency = a.real("lat-us", 10.0) * 1e-6;
  ClusterSimOptions o;
  o.block_side = a.num("block", 64);
  const auto r = simulate_cluster_npdp(inst, cfg, o);
  std::printf("cluster n=%lld on %d nodes: %s, comm %s, efficiency %s\n",
              static_cast<long long>(inst.n), cfg.nodes,
              fmt_seconds(r.seconds).c_str(),
              fmt_bytes(double(r.comm_bytes)).c_str(),
              fmt_pct(r.efficiency).c_str());
  return 0;
}

int cmd_model(const Args& a) {
  ModelParams p;
  p.n1 = double(a.num("n", 4096));
  p.cores = double(a.num("spes", 16));
  const auto sp = spu_latencies(Precision::Single);
  p.kernel_cycles = kernel_steady_cycles(4, sp);
  p.n2_override = double(a.num("block", 88));
  std::printf("T_M=%s T_C=%s T_all=%s U=%s %s-bound (B_req %s/s)\n",
              fmt_seconds(model_memory_time(p)).c_str(),
              fmt_seconds(model_compute_time(p)).c_str(),
              fmt_seconds(model_total_time(p)).c_str(),
              fmt_pct(model_utilization(p)).c_str(),
              model_compute_bound(p) ? "compute" : "memory",
              fmt_bytes(model_required_bandwidth(p)).c_str());
  return 0;
}

serve::OverloadPolicy policy_from(const std::string& s) {
  if (s == "block") return serve::OverloadPolicy::Block;
  if (s == "reject") return serve::OverloadPolicy::Reject;
  if (s == "shed" || s == "shed-oldest")
    return serve::OverloadPolicy::ShedOldest;
  throw UsageError("unknown --policy '" + s + "' (block|reject|shed)");
}

serve::ServiceOptions service_options_from(const Args& a) {
  serve::ServiceOptions so;
  so.workers = static_cast<std::size_t>(a.num("workers", 4));
  so.queue_capacity = static_cast<std::size_t>(a.num("queue", 256));
  so.policy = policy_from(a.get("policy", "block"));
  so.cache_capacity = static_cast<std::size_t>(a.num("cache", 1024));
  so.batch_max = static_cast<std::size_t>(a.num("batch", 8));
  so.batch_max_size = a.num("batch-max-size", 512);
  if (a.has("backend")) {
    backend_from(a.get("backend"));  // unknown name -> usage error (exit 3)
    so.backend = a.get("backend");
  }
  // Resilience ladder knobs (all default-off; see docs/resilience.md).
  if (a.has("retries"))
    so.resilience.retry.max_attempts =
        std::max(1, static_cast<int>(a.num("retries", 1)));
  if (a.has("breaker")) so.resilience.breaker_enabled = true;
  if (a.has("fallback")) {
    backend_from(a.get("fallback"));  // validate the name up front
    so.resilience.fallback_backend = a.get("fallback");
  }
  if (a.has("hedge")) so.resilience.hedge.enabled = true;
  // Multi-tenant QoS policies: --tenants "1:name=hot:rate=500:burst=50:
  // weight=1:cache-kb=64/2:name=quiet:weight=4" (entries separated by
  // '/', fields by ':', first field the numeric tenant id).
  if (a.has("tenants")) {
    std::string err;
    if (!serve::parse_tenant_spec(a.get("tenants"), &so.tenants, &err))
      throw UsageError("--tenants: " + err);
  }
  return so;
}

/// Drives the in-process solve service from a line-delimited request
/// stream (one request per line, '#' comments and blank lines skipped;
/// format in src/serve/request.hpp). "-" reads stdin.
int cmd_serve(const Args& a) {
  const std::string path = a.need("requests");
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) throw UsageError("cannot open request stream " + path);
  }
  std::istream& is = path == "-" ? std::cin : file;

  auto fault_scope = fault_scope_from(a);  // outlives the service
  serve::SolveService service(service_options_from(a));
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
int cmd_bench_serve(const Args& a) {
  const long total = a.num("requests", 1000);
  if (total < 1) throw UsageError("--requests must be >= 1");
  const long distinct = std::max(1L, a.num("distinct", 25));
  const std::string mode = a.get("mode", "closed");
  if (mode != "closed" && mode != "open")
    throw UsageError("unknown --mode '" + mode + "' (closed|open)");
  serve::ServiceOptions so = service_options_from(a);
  const long concurrency =
      std::max(1L, a.num("concurrency", 2 * long(so.workers)));
  const double rate = a.real("rate", 500.0);
  const long max_n = std::max(64L, a.num("n", 192));
  auto fault_scope = fault_scope_from(a);  // outlives the service

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
  SplitMix64 pick(static_cast<std::uint64_t>(a.num("seed", 42)));

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

  BenchConfig cfg;
  cfg.json_dir = a.get("json-dir", ".");
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
int cmd_net_serve(const Args& a) {
  net::ServerOptions no;
  no.host = a.get("host", "127.0.0.1");
  no.port = static_cast<std::uint16_t>(a.num("port", 9377));
  no.reactors = static_cast<int>(a.num("reactors", 2));
  no.max_frame = static_cast<std::size_t>(
      a.num("max-frame", long(net::kDefaultMaxFrame)));
  no.idle_timeout_ms = a.num("idle-timeout-ms", 30000);
  no.drain_timeout_ms = a.num("drain-timeout-ms", 5000);
  auto fault_scope = fault_scope_from(a);  // outlives the server
  const bool tracing = a.has("trace");
  if (tracing)
    // Started before the server so the reactor threads register their
    // ring buffers; exported after drain as one server-side trace.
    obs::Tracer::instance().start(
        static_cast<std::size_t>(a.num("trace-buf", 1 << 18)));
  if (a.has("request-log")) {
    obs::request_log().enable(
        static_cast<std::size_t>(a.num("log-capacity", 1 << 16)));
    obs::request_log().set_sample_every(
        static_cast<std::uint32_t>(std::max(1L, a.num("log-sample", 1))));
  }
  net::NpdpServer server(no, service_options_from(a));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "net-serve: %s\n", err.c_str());
    return 1;
  }
  if (a.has("port-file")) {
    // Written only after the bind succeeded, so a script that polls this
    // file can connect the moment it appears (needed with --port 0).
    std::ofstream os(a.get("port-file"));
    if (!os) {
      std::fprintf(stderr, "net-serve: cannot write %s\n",
                   a.get("port-file").c_str());
      return 1;
    }
    os << server.port() << "\n";
  }
  std::printf("net-serve: listening on %s:%u (%d reactors, max frame %zu, "
              "idle timeout %lld ms)\n",
              no.host.c_str(), unsigned(server.port()), no.reactors,
              no.max_frame, static_cast<long long>(no.idle_timeout_ms));
  std::fflush(stdout);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const long duration_ms = a.num("duration-ms", 0);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_ms > 0 &&
        std::chrono::steady_clock::now() - t0 >=
            std::chrono::milliseconds(duration_ms))
      break;
  }
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
  if (tracing) {
    obs::Tracer::instance().stop();
    const long events =
        obs::export_chrome_trace(a.get("trace"), "npdp-server");
    if (events < 0) {
      std::fprintf(stderr, "net-serve: cannot write %s\n",
                   a.get("trace").c_str());
      return 1;
    }
    std::printf("net-serve: trace written to %s (%ld events)\n",
                a.get("trace").c_str(), events);
  }
  if (a.has("request-log")) {
    std::ofstream os(a.get("request-log"));
    if (!os) {
      std::fprintf(stderr, "net-serve: cannot write %s\n",
                   a.get("request-log").c_str());
      return 1;
    }
    const std::size_t written = obs::request_log().snapshot().size();
    obs::request_log().write_jsonl(os);
    std::printf("net-serve: %zu wide events written to %s "
                "(%llu appended, %llu sampled out)\n",
                written, a.get("request-log").c_str(),
                static_cast<unsigned long long>(
                    obs::request_log().appended()),
                static_cast<unsigned long long>(
                    obs::request_log().sampled_out()));
  }
  return 0;
}

/// Splits one comma-separated "[name=]host:port,..." flag value (the Args
/// map rejects repeated flags, so lists ride in a single value). The
/// optional name= prefix is the replica's ring identity; it defaults to
/// "host:port".
std::vector<router::ReplicaEndpoint> parse_endpoint_list(
    const std::string& spec, const char* flag) {
  std::vector<router::ReplicaEndpoint> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) continue;
    router::ReplicaEndpoint ep;
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) {
      ep.name = item.substr(0, eq);
      item = item.substr(eq + 1);
    }
    const std::size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= item.size())
      throw UsageError(std::string("--") + flag + ": '" + item +
                       "' is not host:port");
    ep.host = item.substr(0, colon);
    long port = 0;
    if (!parse_whole(item.substr(colon + 1), &port) || port <= 0 ||
        port > 65535)
      throw UsageError(std::string("--") + flag + ": bad port in '" + item +
                       "'");
    ep.port = static_cast<std::uint16_t>(port);
    if (ep.name.empty()) ep.name = item;
    out.push_back(std::move(ep));
  }
  if (out.empty())
    throw UsageError(std::string("--") + flag + ": empty endpoint list");
  return out;
}

/// Network load generator against a running net-serve (or net-route).
/// Closed loop by default; --rate R switches to open-loop fixed-rate
/// injection. --targets fans the connections out over several endpoints
/// round-robin. Writes BENCH_net.json (one aggregate record, plus one
/// per-target record when several targets are named) and exits nonzero if
/// any protocol or transport error occurred (the loopback smoke check in
/// verify.sh relies on that).
int cmd_net_bench(const Args& a) {
  net::LoadGenOptions lo;
  lo.host = a.get("host", "127.0.0.1");
  lo.port = static_cast<std::uint16_t>(a.num("port", 9377));
  if (a.has("targets")) {
    for (const auto& ep : parse_endpoint_list(a.get("targets"), "targets"))
      lo.targets.push_back({ep.host, ep.port});
  }
  lo.connections = static_cast<int>(a.num("connections", 4));
  lo.rate = a.real("rate", 0);
  lo.duration_ms = static_cast<std::int64_t>(a.real("duration", 2.0) * 1000);
  lo.max_requests = static_cast<std::uint64_t>(a.num("requests", 0));
  lo.mix = a.get("mix", "chain");
  lo.size = a.num("size", 32);
  lo.priority = static_cast<int>(a.num("priority", 0));
  lo.deadline_ms = static_cast<std::uint32_t>(a.num("deadline-ms", 0));
  const long tenant = a.num("tenant", 0);
  if (tenant < 0 || tenant >= long(serve::kMaxTenants))
    throw UsageError("--tenant out of range (0.." +
                     std::to_string(serve::kMaxTenants - 1) + ")");
  lo.tenant = static_cast<std::uint16_t>(tenant);
  lo.backend = a.get("backend", "");
  lo.semiring = a.get("semiring", "");
  if (!lo.semiring.empty() && lo.semiring != "mix") {
    SemiringId sr;
    if (!semiring_from_name(lo.semiring, &sr))
      throw UsageError("unknown --semiring '" + lo.semiring +
                       "' (min-plus|max-plus|counting|viterbi-log|mix)");
  }
  lo.seed = static_cast<std::uint64_t>(a.num("seed", 1));
  lo.distinct = static_cast<int>(a.num("distinct", 16));
  lo.timeout_ms = static_cast<int>(a.num("timeout-ms", 10000));
  lo.connect_timeout_ms = static_cast<int>(a.num("connect-timeout-ms", 0));
  lo.trace = a.has("trace") || a.has("trace-sample");
  lo.trace_sample = a.real("trace-sample", 1.0);
  if (lo.mix != "solve" && lo.mix != "fold" && lo.mix != "parse" &&
      lo.mix != "chain" && lo.mix != "bst" && lo.mix != "mix")
    throw UsageError("unknown --mix '" + lo.mix +
                     "' (solve|fold|parse|chain|bst|mix)");
  const bool tracing = a.has("trace");
  if (tracing)
    obs::Tracer::instance().start(
        static_cast<std::size_t>(a.num("trace-buf", 1 << 18)));

  net::LoadGenResult r;
  std::string err;
  if (!net::run_loadgen(lo, &r, &err)) {
    std::fprintf(stderr, "net-bench: %s\n", err.c_str());
    return 1;
  }
  if (tracing) obs::Tracer::instance().stop();
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

  BenchConfig cfg;
  cfg.json_dir = a.get("json-dir", ".");
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
  if (tracing) {
    const long events =
        obs::export_chrome_trace(a.get("trace"), "npdp-client");
    if (events < 0) {
      std::fprintf(stderr, "net-bench: cannot write %s\n",
                   a.get("trace").c_str());
      return 1;
    }
    std::printf("  client trace written to %s (%ld events)\n",
                a.get("trace").c_str(), events);
  }
  return r.clean() ? 0 : 1;
}

/// Runs NpdpRouter in the foreground until SIGINT/SIGTERM (or the
/// optional --duration-ms elapses), then drains gracefully. Mirrors
/// cmd_net_serve: --port-file appears only after the bind succeeded.
int cmd_net_route(const Args& a) {
  router::RouterOptions ro;
  ro.net.host = a.get("host", "127.0.0.1");
  ro.net.port = static_cast<std::uint16_t>(a.num("port", 9378));
  ro.net.reactors = static_cast<int>(a.num("reactors", 2));
  ro.net.max_frame = static_cast<std::size_t>(
      a.num("max-frame", long(net::kDefaultMaxFrame)));
  ro.net.idle_timeout_ms = a.num("idle-timeout-ms", 30000);
  ro.net.drain_timeout_ms = a.num("drain-timeout-ms", 5000);
  ro.replicas = parse_endpoint_list(a.need("replicas"), "replicas");
  ro.vnodes = static_cast<int>(a.num("vnodes", 64));
  ro.max_attempts = static_cast<int>(a.num("max-attempts", 3));
  ro.probe_interval_ms = a.num("probe-interval-ms", 200);
  ro.probe_timeout_ms = static_cast<int>(a.num("probe-timeout-ms", 1000));
  ro.connect_timeout_ms = static_cast<int>(a.num("connect-timeout-ms", 1000));
  const bool tracing = a.has("trace");
  if (tracing)
    obs::Tracer::instance().start(
        static_cast<std::size_t>(a.num("trace-buf", 1 << 18)));
  router::NpdpRouter router(ro);
  std::string err;
  if (!router.start(&err)) {
    std::fprintf(stderr, "net-route: %s\n", err.c_str());
    return 1;
  }
  if (a.has("port-file")) {
    std::ofstream os(a.get("port-file"));
    if (!os) {
      std::fprintf(stderr, "net-route: cannot write %s\n",
                   a.get("port-file").c_str());
      return 1;
    }
    os << router.port() << "\n";
  }
  std::printf("net-route: listening on %s:%u, %zu replicas (%d vnodes "
              "each, probe every %lld ms)\n",
              ro.net.host.c_str(), unsigned(router.port()),
              ro.replicas.size(), ro.vnodes,
              static_cast<long long>(ro.probe_interval_ms));
  for (const auto& ep : ro.replicas)
    std::printf("  replica %s -> %s:%u\n", ep.name.c_str(), ep.host.c_str(),
                unsigned(ep.port));
  std::fflush(stdout);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const long duration_ms = a.num("duration-ms", 0);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_ms > 0 &&
        std::chrono::steady_clock::now() - t0 >=
            std::chrono::milliseconds(duration_ms))
      break;
  }
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
  if (tracing) {
    obs::Tracer::instance().stop();
    const long events =
        obs::export_chrome_trace(a.get("trace"), "npdp-router");
    if (events < 0) {
      std::fprintf(stderr, "net-route: cannot write %s\n",
                   a.get("trace").c_str());
      return 1;
    }
    std::printf("net-route: trace written to %s (%ld events)\n",
                a.get("trace").c_str(), events);
  }
  return 0;
}

/// One peer process of a distributed solve (docs/distributed.md). All
/// peers must be launched with the same --peers list and workload flags;
/// each passes its own --rank. The instance is the same pure generated
/// workload `npdp solve` uses, so a --save'd table from any rank can be
/// cmp'd byte-for-byte against `npdp solve --save` output — that is
/// exactly what verify.sh's dist phase does.
int cmd_dist_solve(const Args& a) {
  const auto rank = static_cast<std::uint32_t>(a.num("rank", -1));
  const std::vector<dist::PeerEndpoint> peers =
      dist::parse_peer_list(a.need("peers"));
  if (a.num("rank", -1) < 0 ||
      rank >= static_cast<std::uint32_t>(peers.size()))
    throw UsageError("--rank must name an entry in --peers (0.." +
                     std::to_string(peers.size() - 1) + ")");

  NpdpInstance<float> inst;
  inst.n = a.num("n", 1024);
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  SemiringId sr = SemiringId::MinPlus;
  if (a.has("semiring") && !semiring_from_name(a.get("semiring"), &sr))
    throw UsageError("unknown semiring '" + a.get("semiring") +
                     "' (min-plus|max-plus|counting|viterbi-log)");
  inst.semiring = sr;
  inst.init = [seed, sr](index_t i, index_t j) {
    return semiring_init_value<float>(sr, seed, i, j);
  };

  dist::DistOptions opts;
  opts.tuning.block_side = a.num("block", 64);
  opts.tuning.kernel = kernel_from(a.get("kernel", "simd128"));
  opts.tuning.threads = static_cast<std::size_t>(a.num("threads", 1));
  opts.group.connect_timeout_ms =
      static_cast<int>(a.num("connect-timeout-ms", 10000));
  opts.stall_timeout_ms = static_cast<int>(a.num("stall-timeout-ms", 60000));
  // The hello frame already carries n/block/semiring explicitly; the hash
  // covers what it cannot: the workload seed. A peer launched with a
  // different --seed fails the handshake instead of assembling garbage.
  opts.config_hash = fnv1a(&seed, sizeof(seed));

  // Optional ordinary-protocol stats port so `npdp top` can watch the
  // net.peer.* counters of a live peer.
  dist::StatsEndpoint stats_ep;
  if (a.has("stats-port")) {
    std::string err;
    if (!stats_ep.start("127.0.0.1",
                        static_cast<std::uint16_t>(a.num("stats-port", 0)),
                        &err))
      throw UsageError("--stats-port: " + err);
    std::printf("rank %u stats on 127.0.0.1:%u\n", rank,
                unsigned(stats_ep.port()));
    if (a.has("port-file")) {
      std::ofstream os(a.get("port-file"));
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     a.get("port-file").c_str());
        return 1;
      }
      os << stats_ep.port() << "\n";
    }
  }

  BlockedTriangularMatrix<float> mat(inst.n, opts.tuning.block_side,
                                     semiring_zero<float>(sr));
  dist::PeerGroup group(rank, peers, opts.group);
  dist::DistStats ds;
  Stopwatch sw;
  dist::solve_distributed_into(mat, inst, group, opts, &ds);
  const double s = sw.seconds();

  std::printf(
      "rank %u/%zu solved n=%lld (%s, block %lld, %zu threads) in %s\n",
      rank, peers.size(), static_cast<long long>(inst.n),
      std::string(semiring_name(sr)).c_str(),
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

  if (a.has("save")) {
    save_table_file(a.get("save"), mat);
    std::printf("saved to %s\n", a.get("save").c_str());
  }
  return 0;
}

void usage() {
  std::printf(
      "usage: npdp <solve|backends|check-trace|merge-traces|info|fold|parse"
      "|simulate|cluster|dist-solve|model|serve|bench-serve|net-serve"
      "|net-route|net-bench|top> [--key value ...]\n"
      "  dist-solve   one peer of a multi-process distributed solve\n"
      "               (--rank R --peers host:port,...; docs/distributed.md)\n"
      "  backends     list the registered solver backends (--backend names),\n"
      "               capabilities, and breaker health\n"
      "  serve        run the in-process solve service over a line-delimited\n"
      "               request stream (--requests <file|->)\n"
      "  bench-serve  closed/open-loop load generator; writes "
      "BENCH_serve.json\n"
      "  net-serve    epoll TCP front-end over the solve service; --tenants\n"
      "               enables per-tenant QoS (docs/networking.md)\n"
      "  net-route    consistent-hash router over net-serve replicas "
      "(--replicas\n"
      "               [name=]host:port,...; health-probed failover)\n"
      "  net-bench    network load generator against net-serve or "
      "net-route;\n"
      "               writes BENCH_net.json (--targets for several "
      "endpoints)\n"
      "  top          live stats view of a running net-serve (--prom for\n"
      "               Prometheus text exposition, --once for one poll)\n"
      "  merge-traces merge client+server Chrome traces onto one timeline\n"
      "(see the header of tools/npdp_tool.cpp for the full flag list)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  // The coordinator backend lives in the dist library (backend cannot link
  // dist without a cycle), so the binary that links both registers it.
  dist::register_distributed_backend();
  try {
    const Args a = parse_args(argc, argv, 2);
    if (cmd == "solve") return cmd_solve(a);
    if (cmd == "backends") return cmd_backends(a);
    if (cmd == "check-trace") return cmd_check_trace(a);
    if (cmd == "merge-traces") return cmd_merge_traces(a);
    if (cmd == "top") return cmd_top(a);
    if (cmd == "info") return cmd_info(a);
    if (cmd == "fold") return cmd_fold(a);
    if (cmd == "parse") return cmd_parse(a);
    if (cmd == "simulate") return cmd_simulate(a);
    if (cmd == "cluster") return cmd_cluster(a);
    if (cmd == "dist-solve") return cmd_dist_solve(a);
    if (cmd == "model") return cmd_model(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "bench-serve") return cmd_bench_serve(a);
    if (cmd == "net-serve") return cmd_net_serve(a);
    if (cmd == "net-route") return cmd_net_route(a);
    if (cmd == "net-bench") return cmd_net_bench(a);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "bad arguments: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  usage();
  return 2;
}

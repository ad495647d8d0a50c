// The bulk-solve workload: the paper's own measurement. One seeded
// min-plus float instance (n = 2048, block 64, simd128 kernel) is solved
// in-process over and over by the three drivers — solve_blocked_into at
// nproc threads and at 1 thread, and the 3-peer in-process distributed
// solve — and every table must equal the first one byte for byte.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/reference.hpp"
#include "solves.hpp"

namespace perfbench {

namespace {

using namespace cellnpdp;

constexpr index_t kBlock = 64;
constexpr std::uint32_t kPeers = 3;
constexpr int kSetups = 5;

/// d[0][n-1] recorded for (n, seed) in `path` ("n seed hexfloat" lines),
/// or computed by the scalar golden model when the seed is not recorded.
float expected_value(const std::string& path, const NpdpInstance<float>& inst,
                     std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    long long n = 0;
    unsigned long long s = 0;
    std::string value;
    if (is >> n >> s >> value && n == inst.n && s == seed)
      return std::strtof(value.c_str(), nullptr);
  }
  std::fprintf(stderr, "bulk-solve: no recorded value for n=%lld seed=%llu; "
                       "running the scalar reference\n",
               static_cast<long long>(inst.n),
               static_cast<unsigned long long>(seed));
  return solve_reference(inst).at(0, inst.n - 1);
}

}  // namespace

void run_bulk(const RunOptions& o, Outcome* out) {
  const index_t n = o.smoke ? 256 : 2048;
  const auto threads = static_cast<std::size_t>(hardware_threads());

  // Set-up, kSetups times: generate the instance and solve it once at
  // nproc threads, so page faults, thread start-up and lazy
  // initialisation are paid before timing. The last table is the one
  // every timed solve must reproduce.
  std::vector<double> setup;
  NpdpInstance<float> inst;
  std::unique_ptr<Table> first;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    inst = seeded_instance(n, o.seed);
    first = std::move(run_blocked(inst, kBlock, threads, "setup").table);
    setup.push_back(double(now_ns() - t0) * 1e-9);
  }

  auto check = [&](SolveRun& r, const char* driver) {
    ++out->attempted;
    if (!same_bytes(*r.table, *first))
      out->fail(std::string(driver) + " table differs");
    r.table.reset();
  };

  // Rounds of nproc, 1-thread, nproc, distributed until the time is up.
  // The traced run records spans on every other round, so traced and
  // untraced solves interleave under the same conditions.
  SolveSamples s;
  std::vector<double> traced, untraced, nproc_ms;
  std::vector<std::int64_t> nproc_at;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + std::int64_t(o.seconds * 1e9);
  for (int round = 0; now_ns() < end || round < (o.trace ? 2 : 1); ++round) {
    const bool on = o.trace && round % 2 == 1;
    spans().set_enabled(on);
    for (int k = 0; k < 2; ++k) {
      SolveRun a = run_blocked(inst, kBlock, threads, "solve.nproc");
      check(a, "nproc");
      (on ? traced : untraced).push_back(a.seconds);
      nproc_ms.push_back(a.seconds * 1e3);
      nproc_at.push_back(now_ns());
      s.nproc.push_back(std::move(a));
      if (k == 0) {
        SolveRun b = run_blocked(inst, kBlock, 1, "solve.1t");
        check(b, "1-thread");
        s.one.push_back(std::move(b));
      }
    }
    SolveRun d = run_dist(inst, kBlock, kPeers);
    check(d, "distributed");
    s.dist.push_back(std::move(d));
    spans().set_enabled(false);
  }

  ++out->attempted;
  const float got = first->at(0, n - 1);
  const float want = expected_value(o.expected_path, inst, o.seed);
  if (std::memcmp(&got, &want, sizeof got) != 0) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "d[0][n-1] = %a, recorded %a", got, want);
    out->fail(buf);
  }

  if (!o.trace) {
    // The "requests" of this workload are the solves: rps counts every
    // driver's, and the latency percentiles are those of the nproc solve,
    // taken per slice of the run like the serve workloads'.
    double total_s = 0;
    std::size_t solves = 0;
    for (const auto* runs : {&s.nproc, &s.one, &s.dist})
      for (const SolveRun& r : *runs) {
        total_s += r.seconds;
        ++solves;
      }
    std::vector<double> p50, p99;
    for (const auto& w : by_window(nproc_at, nproc_ms, start, now_ns())) {
      p50.push_back(quantile(w, 0.5));
      p99.push_back(quantile(w, 0.99));
    }
    out->add(summarize("setup_s", "s", setup));
    out->add(summarize("solve_s", "s", seconds_of(s.nproc)));
    out->add(summarize("solve_1t_s", "s", seconds_of(s.one), kFastest));
    out->add(summarize("dist_solve_s", "s", seconds_of(s.dist)));
    out->add(scalar("rps", "1/s", double(solves) / total_s));
    out->add(summarize("p50_ms", "ms", p50));
    out->add(summarize("p99_ms", "ms", p99, kQuietQuarter));
    out->add(scalar("peak_rss_mb", "MiB", peak_rss_mb()));
    return;
  }

  add_solve_layers(s, threads, kernel_grelax_s(0.3), out);
  add_serving_zeros(out);
  const double u = median(untraced);
  out->add(scalar("obs.trace_overhead_frac", "frac",
                  u > 0 ? (median(traced) - u) / u : 0));
  std::vector<double> alloc, seed, wall;
  for (const SolveRun& r : s.nproc) {
    alloc.push_back(r.alloc_s);
    seed.push_back(r.seed_s);
    wall.push_back(r.stats.wall_seconds);
  }
  const double whole = median(seconds_of(s.nproc));
  const double gap =
      std::abs(median(alloc) + median(seed) + median(wall) - whole) / whole;
  if (gap > 0.05)
    std::fprintf(stderr, "budget: layer self times miss solve_s by %.1f%% "
                         "(over 5%%)\n", gap * 100);
  out->add(scalar("budget.gap_frac", "frac", gap));
}

}  // namespace perfbench

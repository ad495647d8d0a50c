// Resilience overhead and recovery cost.
//
// The contract of the fault-injection harness is "zero cost when off": the
// hook is one relaxed atomic load per memory block, and the blocked
// solve's retry scaffolding must not tax the clean path. This bench
// measures (a) the clean-path overhead of the self-checking solve against
// the plain blocked solve — with a retry budget but checksums off,
// isolating the harness itself (budget: < 2%), and with checksums on,
// pricing the FNV-1a round-trip; (b) what recovery costs under the acceptance fault
// plan (1% task throws + 0.1% block corruption), confirming the healed
// result stays bit-identical; (c) a faulty closed-loop service with
// retries enabled, showing the ladder answering every request.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <vector>

#include "backend/solver_backend.hpp"
#include "bench_util/bench_config.hpp"
#include "bench_util/json_out.hpp"
#include "bench_util/table.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/solve.hpp"
#include "resilience/fault_injector.hpp"
#include "serve/service.hpp"

namespace cellnpdp {
namespace {

NpdpInstance<float> instance(index_t n) {
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(2026, i, j);
  };
  return inst;
}

template <class Fn>
double timed_seconds(Fn&& fn) {
  Stopwatch sw;
  fn();
  return sw.seconds();
}

void run(const BenchConfig& cfg) {
  const index_t n = cfg.full ? 2048 : 1024;
  const index_t bs = 64;
  const int repeats = cfg.full ? 9 : 5;
  const auto inst = instance(n);
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  // What the resilient backend runs: a retry budget, checksums on.
  ExecutionContext healing = ctx;
  healing.retry.max_attempts = 4;

  BenchJson out("resilience", cfg);

  // --- clean-path overhead ------------------------------------------------
  // The three paths are interleaved round-robin and the per-path minimum
  // taken: back-to-back A/B runs see the same machine state, and the min
  // is the standard noise-robust estimator when the quantity of interest
  // is a small constant overhead, not throughput under load.
  BlockedTriangularMatrix<float> ref(n, bs);
  BlockedTriangularMatrix<float> mat(n, bs);
  double clean_s = 1e30, harness_s = 1e30, sums_s = 1e30;
  for (int r = 0; r < repeats + 1; ++r) {
    const double c = timed_seconds([&] {
      ref.reset();
      solve_blocked_into(ref, inst, ctx);
    });
    const double h = timed_seconds([&] {
      mat.reset();
      solve_blocked_into(mat, inst, healing);
    });
    const double k = timed_seconds([&] {
      mat.reset();
      solve_blocked_into(mat, inst, healing, /*checksums=*/true);
    });
    if (r == 0) continue;  // warm-up round: caches, page faults
    clean_s = std::min(clean_s, c);
    harness_s = std::min(harness_s, h);
    sums_s = std::min(sums_s, k);
  }

  const double harness_pct = (harness_s / clean_s - 1.0) * 100.0;
  const double sums_pct = (sums_s / clean_s - 1.0) * 100.0;
  std::printf("\nClean path, n=%d bs=%d (min of %d interleaved rounds):\n",
              int(n), int(bs), repeats);
  TextTable t({"path", "solve", "overhead"});
  t.row("blocked", fmt_seconds(clean_s), "-");
  t.row("retry budget, checksums off", fmt_seconds(harness_s),
        fmt_pct(harness_pct / 100.0));
  t.row("retry budget, checksums on", fmt_seconds(sums_s),
        fmt_pct(sums_pct / 100.0));
  t.print();
  std::printf("(budget: the harness itself — hook probe + retry scaffolding "
              "— stays under 2%% of the clean solve)\n");
  out.record()
      .set("scenario", "clean_path")
      .set("n", std::int64_t(n))
      .set("block_side", std::int64_t(bs))
      .set("clean_s", clean_s)
      .set("harness_s", harness_s)
      .set("checksum_s", sums_s)
      .set("overhead_pct", harness_pct)
      .set("checksum_overhead_pct", sums_pct);

  // --- recovery cost under injected faults --------------------------------
  // Rates high enough (5% throws, 1% corruption) that the quick sizes
  // actually exercise retry and repair; zero backoff so the timing prices
  // the re-execution itself, not deliberate sleeps.
  {
    resilience::FaultPlan plan;
    plan.seed = 42;
    plan.rules.push_back({FaultSite::TaskThrow, 0.05, -1, 0});
    plan.rules.push_back({FaultSite::BlockCorrupt, 0.01, -1, 0});
    resilience::FaultInjectionScope scope(std::move(plan));
    ExecutionContext fast = healing;
    fast.retry.base_backoff = std::chrono::milliseconds(0);
    SolveStats rep;
    fast.stats = &rep;
    double faulty_s = 1e30;
    index_t retries = 0, repairs = 0;
    bool identical = true;
    for (int r = 0; r < repeats; ++r) {
      mat.reset();
      faulty_s = std::min(faulty_s, timed_seconds([&] {
        solve_blocked_into(mat, inst, fast, /*checksums=*/true);
      }));
      retries += rep.block_retries;
      repairs += rep.block_repairs;
      identical = identical &&
                  std::memcmp(ref.data(), mat.data(),
                              static_cast<std::size_t>(ref.total_cells()) *
                                  sizeof(float)) == 0;
    }
    std::printf("\nFaulty solve (5%% task-throw, 1%% block-corrupt, %d "
                "runs): best %s, %d retries, %d repairs, every run %s\n",
                repeats, fmt_seconds(faulty_s).c_str(), int(retries),
                int(repairs),
                identical ? "bit-identical to clean" : "MISMATCHED");
    out.record()
        .set("scenario", "faulty_solve")
        .set("solve_s", faulty_s)
        .set("block_retries", std::int64_t(retries))
        .set("block_repairs", std::int64_t(repairs))
        .set("recovery_overhead_pct", (faulty_s / clean_s - 1.0) * 100.0)
        .set("bit_identical", identical);
  }

  // --- faulty closed-loop service -----------------------------------------
  {
    resilience::FaultInjectionScope scope(
        resilience::FaultPlan::single(FaultSite::TaskThrow, 0.05));
    serve::ServiceOptions so;
    so.workers = 2;
    so.cache_capacity = 0;  // every request must really solve
    so.resilience.retry.max_attempts = 4;
    serve::SolveService svc(so);
    const int requests = cfg.full ? 400 : 120;
    Stopwatch sw;
    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < requests; ++i) {
      serve::Request r;
      serve::SolveSpec s;
      s.n = 96;
      s.seed = std::uint64_t(i);
      s.block_side = 32;
      r.payload = s;
      futs.push_back(svc.submit(std::move(r)));
    }
    std::uint64_t ok = 0;
    for (auto& f : futs) ok += serve::is_success(f.get().status);
    const double wall_s = sw.seconds();
    svc.stop();
    const auto st = svc.stats();
    std::printf("\nFaulty service (5%% request throws, 4 attempts): "
                "%d requests, %llu ok, %llu retries, %llu errors, %s\n",
                requests, (unsigned long long)ok,
                (unsigned long long)st.retries,
                (unsigned long long)st.errors, fmt_seconds(wall_s).c_str());
    out.record()
        .set("scenario", "faulty_service")
        .set("requests", std::int64_t(requests))
        .set("ok", std::int64_t(ok))
        .set("retries", std::int64_t(st.retries))
        .set("errors", std::int64_t(st.errors))
        .set("wall_s", wall_s);
  }
}

}  // namespace
}  // namespace cellnpdp

int main(int argc, char** argv) {
  using namespace cellnpdp;
  const auto cfg = BenchConfig::from_args(argc, argv);
  print_bench_header("Resilience: harness overhead and recovery cost", cfg);
  run(cfg);
  return 0;
}

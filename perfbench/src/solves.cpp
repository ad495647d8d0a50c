#include "solves.hpp"

#include <algorithm>
#include <cstring>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "core/solve.hpp"
#include "dist/in_process.hpp"
#include "simd/dispatch.hpp"
#include "simd/semiring.hpp"

namespace perfbench {

using namespace cellnpdp;

NpdpInstance<float> seeded_instance(index_t n, std::uint64_t seed) {
  NpdpInstance<float> inst;
  inst.n = n;
  inst.semiring = SemiringId::MinPlus;
  inst.init = [seed](index_t i, index_t j) {
    return semiring_init_value<float>(SemiringId::MinPlus, seed, i, j);
  };
  return inst;
}

SolveRun run_blocked(const NpdpInstance<float>& inst, index_t block,
                     std::size_t threads, const char* span) {
  SolveRun r;
  const std::int64_t t0 = now_ns();
  r.table = std::make_unique<Table>(inst.n, block,
                                    semiring_zero<float>(inst.semiring));
  const std::int64_t t1 = now_ns();
  ExecutionContext ctx;
  ctx.tuning.block_side = block;
  ctx.tuning.kernel = KernelKind::Native;
  ctx.tuning.threads = threads;
  ctx.stats = &r.stats;
  solve_blocked_into(*r.table, inst, ctx);
  const std::int64_t t2 = now_ns();
  r.seconds = double(t2 - t0) * 1e-9;
  r.alloc_s = double(t1 - t0) * 1e-9;
  const std::int64_t wall_ns =
      std::min<std::int64_t>(t2 - t1, std::int64_t(r.stats.wall_seconds * 1e9));
  r.seed_s = double(t2 - t1 - wall_ns) * 1e-9;
  SpanLog& log = spans();
  if (log.enabled()) {
    const std::uint64_t root = log.record(span, t0, t2);
    log.record("layout.alloc", t0, t1, root);
    log.record("core.seed", t1, t2 - wall_ns, root);
    log.record("taskgraph.run", t2 - wall_ns, t2, root);
  }
  return r;
}

SolveRun run_dist(const NpdpInstance<float>& inst, index_t block,
                  std::uint32_t peers) {
  SolveRun r;
  dist::DistOptions opts;
  opts.tuning.block_side = block;
  opts.tuning.kernel = KernelKind::Native;
  const std::int64_t t0 = now_ns();
  r.table = std::make_unique<Table>(
      dist::solve_distributed_in_process(inst, opts, peers, &r.ranks));
  const std::int64_t t1 = now_ns();
  r.seconds = double(t1 - t0) * 1e-9;
  SpanLog& log = spans();
  if (log.enabled()) {
    const std::uint64_t root = log.record("solve.dist", t0, t1);
    for (const dist::DistStats& d : r.ranks)
      log.record("dist.rank", t1 - std::int64_t(d.wall_seconds * 1e9), t1,
                 root);
  }
  return r;
}

bool same_bytes(const Table& a, const Table& b) {
  return a.size() == b.size() && a.block_side() == b.block_side() &&
         a.total_cells() == b.total_cells() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.total_cells()) *
                         sizeof(float)) == 0;
}

std::vector<double> seconds_of(const std::vector<SolveRun>& runs) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const SolveRun& r : runs) v.push_back(r.seconds);
  return v;
}

double kernel_grelax_s(double seconds) {
  const CbKernel<float> k = cb_kernel<float>(KernelKind::Native);
  constexpr index_t kStride = 64;
  const auto cells = static_cast<std::size_t>(k.width * kStride);
  aligned_vector<float> c(cells), a(cells), b(cells);
  SplitMix64 rng(1);
  for (auto* v : {&c, &a, &b})
    for (float& x : *v) x = float(rng.next_in(0, 100));
  constexpr int kBatch = 1 << 15;
  const double relax_per_call = double(k.width * k.width * k.width);
  std::vector<double> rates;
  const std::int64_t end = now_ns() + std::int64_t(seconds * 1e9);
  do {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      k.pure(c.data(), kStride, a.data(), kStride, b.data(), kStride);
      asm volatile("" : : "r"(c.data()) : "memory");
    }
    const std::int64_t t1 = now_ns();
    rates.push_back(relax_per_call * kBatch / (double(t1 - t0) * 1e-9) / 1e9);
  } while (now_ns() < end);
  return median(rates);
}

namespace {

double engine_relaxations(const EngineStats& e) {
  const double w = double(cb_kernel<float>(KernelKind::Native).width);
  return double(e.kernel_calls) * w * w * w + double(e.scalar_relax());
}

}  // namespace

void add_solve_layers(const SolveSamples& s, std::size_t threads,
                      double kernel_rate, Outcome* out) {
  std::vector<double> wall_1t, engine_rate, util, idle, stall, compute,
      bytes, messages;
  for (const SolveRun& r : s.one) {
    wall_1t.push_back(r.stats.wall_seconds);
    if (r.stats.busy_total() > 0)
      engine_rate.push_back(engine_relaxations(r.stats.engine) /
                            r.stats.busy_total() / 1e9);
  }
  for (const SolveRun& r : s.nproc) {
    util.push_back(r.stats.utilization());
    idle.push_back(r.stats.wall_seconds * double(r.stats.worker_busy.size()) -
                   r.stats.busy_total());
  }
  for (const SolveRun& r : s.dist) {
    double max_wall = 0, max_stall = 0, b = 0, m = 0;
    for (const dist::DistStats& d : r.ranks) {
      max_wall = std::max(max_wall, d.wall_seconds);
      max_stall = std::max(max_stall, d.stall_seconds);
      b += double(d.bytes_sent);
      m += double(d.messages_sent);
    }
    stall.push_back(max_stall);
    compute.push_back(max_wall > 0 ? 1.0 - max_stall / max_wall : 0);
    bytes.push_back(b);
    messages.push_back(m);
  }
  const std::vector<double> alloc = spans().durations_ms("layout.alloc");
  const EngineStats counts =
      s.one.empty() ? EngineStats{} : s.one.front().stats.engine;
  const double engine = median(engine_rate);
  const double t1 = median(seconds_of(s.one));
  const double tn = median(seconds_of(s.nproc));

  out->add(scalar("simd.kernel_grelax_s", "Grelax/s", kernel_rate));
  out->add(summarize("layout.alloc_ms", "ms", alloc));
  out->add(summarize("core.solve_wall_s", "s", wall_1t));
  out->add(summarize("core.engine_grelax_s", "Grelax/s", engine_rate));
  out->add(scalar("core.kernel_frac", "frac",
                  kernel_rate > 0 ? engine / kernel_rate : 0));
  out->add(scalar("core.kernel_calls", "count", double(counts.kernel_calls)));
  out->add(scalar("core.scalar_relax", "count", double(counts.scalar_relax())));
  out->add(summarize("taskgraph.utilization", "frac", util));
  out->add(summarize("taskgraph.idle_s", "s", idle));
  out->add(scalar("taskgraph.scaling_eff", "frac",
                  tn > 0 ? t1 / (double(threads) * tn) : 0));
  out->add(summarize("dist.stall_s", "s", stall));
  out->add(summarize("dist.compute_frac", "frac", compute));
  out->add(summarize("dist.bytes_sent", "bytes", bytes));
  out->add(summarize("dist.messages_sent", "count", messages));
}

}  // namespace perfbench

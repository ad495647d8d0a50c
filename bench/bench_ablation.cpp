// Ablation benches for the design choices DESIGN.md calls out:
//   (1) scheduling-block size (task-scheduling overhead vs parallel slack);
//   (2) register caching in the computing-block kernel (80 vs 128 instrs);
//   (3) 128-bit vs 256-bit kernels on the host CPU;
//   (4) simplified (left+below) dependence graph vs full-graph release
//       timing — measured as simulated makespan with forced serial chains.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "bench_util/bench_config.hpp"
#include "bench_util/json_out.hpp"
#include "bench_util/table.hpp"
#include "cellsim/npdp_sim.hpp"
#include "common/stopwatch.hpp"
#include "core/solve.hpp"
#include "core/traceback.hpp"

namespace cellnpdp {
namespace {

void ablate_sched_block(const BenchConfig&) {
  std::printf("\n(1) Scheduling-block size (simulated QS20, n=4096 SP, "
              "16KB blocks, 16 SPEs):\n");
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  TextTable t({"sched side (memory blocks)", "tasks", "time"});
  for (index_t ss : {1, 2, 4, 8}) {
    CellSimOptions o;
    o.block_side = 64;
    o.sched_side = ss;
    const auto r = simulate_cellnpdp(inst, qs20(), o);
    t.row(ss, r.tasks, fmt_seconds(r.seconds));
  }
  t.print();
  std::printf("(bigger scheduling blocks cut PPE dispatches quadratically "
              "but coarsen the wavefront; the paper picks small multiples)\n");
}

void ablate_register_caching(const BenchConfig&) {
  std::printf("\n(2) Kernel register caching (SPU pipeline model, SP):\n");
  const auto sp = spu_latencies(Precision::Single);
  const auto cached = cb_op_counts_cached(4);
  const auto naive = cb_op_counts_uncached(4);
  // The pipeline is pipe-1 bound without caching: memory ops dominate.
  const int p1_cached = cached.loads + cached.shuffles + cached.stores;
  const int p1_naive = naive.loads + naive.shuffles + naive.stores;
  TextTable t({"variant", "instructions", "pipe-1 ops", "min cycles"});
  t.row("naive (reload per step)", naive.total(), p1_naive,
        std::max(p1_naive, naive.adds + naive.compares + naive.selects));
  t.row("register-cached (paper)", cached.total(), p1_cached,
        kernel_steady_cycles(4, sp));
  t.print();
}

void ablate_kernel_width(const BenchConfig& cfg) {
  const index_t n = cfg.full ? 2048 : 1024;
  std::printf("\n(3) Kernel width on the host CPU (native, n=%ld, single "
              "thread):\n", static_cast<long>(n));
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : float((i + j) % 100);
  };
  TextTable t({"kernel", "time", "speedup vs scalar"});
  double scalar_s = 0;
  for (KernelKind k :
       {KernelKind::Scalar, KernelKind::Native, KernelKind::Wide}) {
    NpdpOptions o;
    o.block_side = 64;
    o.kernel = k;
    Stopwatch sw;
    auto out = solve_blocked(inst, o);
    const double s = sw.seconds();
    volatile float sink = out.at(0, n - 1);
    (void)sink;
    if (k == KernelKind::Scalar) scalar_s = s;
    t.row(std::string(kernel_kind_name(k)), fmt_seconds(s),
          fmt_x(scalar_s / s));
  }
  t.print();
}

void ablate_prefetch(const BenchConfig&) {
  std::printf("\n(4) Prefetch depth / double buffering (simulated, n=4096 "
              "SP, 16 SPEs, 4x4 scheduling blocks):\n");
  // Multi-block tasks give the SPE something to prefetch across; the
  // low-bandwidth column shows why the paper reserves six LS buffers —
  // on a machine where DMA is not trivially hidden, synchronous transfers
  // sit on the critical path.
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  TextTable t({"blocks in flight", "QS20 (25.6GB/s)", "starved (2GB/s)"});
  for (int depth : {0, 1, 2, 4}) {
    auto run = [&](double bw) {
      CellConfig cfg = qs20();
      cfg.memory_bandwidth = bw;
      CellSimOptions o;
      o.block_side = 64;
      o.sched_side = 4;
      o.prefetch_depth = depth;
      return simulate_cellnpdp(inst, cfg, o).seconds;
    };
    t.row(depth == 0 ? "none (synchronous DMA)" : std::to_string(depth),
          fmt_seconds(run(25.6e9)), fmt_seconds(run(2e9)));
  }
  t.print();
  std::printf("(the paper's six local-store buffers correspond to depth "
              "~2; with QS20 bandwidth the compute fully hides DMA, which "
              "is itself the design point)\n");
}

void ablate_traceback(const BenchConfig& cfg) {
  const index_t n = cfg.full ? 2048 : 1024;
  std::printf("\n(5) Split traceback overhead (native, n=%ld, SP, single "
              "thread, fastest of 5 interleaved runs):\n",
              static_cast<long>(n));
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : float((i * 5 + j) % 100);
  };
  NpdpOptions o;
  o.block_side = 64;
  double t_plain = 1e300, t_split = 1e300;
  index_t splits = 0;
  volatile float sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch s1;
    const auto plain = solve_blocked(inst, o);
    t_plain = std::min(t_plain, s1.seconds());
    sink = plain.at(0, n - 1);
    Stopwatch s2;
    const auto traced = solve_blocked(inst, o);
    splits = 0;
    visit_splits(traced, inst, 0, n - 1,
                 [&](index_t, index_t, index_t) { ++splits; });
    t_split = std::min(t_split, s2.seconds());
    sink = traced.at(0, n - 1);
  }
  (void)sink;
  TextTable t({"variant", "time", "relative"});
  t.row("values only", fmt_seconds(t_plain), "1.00x");
  t.row("values + split tree (" + std::to_string(splits) + " splits)",
        fmt_seconds(t_split), fmt_x(t_split / t_plain));
  t.print();
}

void ablate_scheduler(const BenchConfig&) {
  std::printf("\n(6) Task queue vs barrier wavefronts (simulated QS20, "
              "n=4096 SP, 16KB blocks):\n");
  // The prior works process the table step by step with a barrier between
  // anti-diagonals (§II-B, 'parallel efficiency is less than 60%'); the
  // paper's task queue lets wavefronts overlap.
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  TextTable t({"SPEs", "task queue", "barrier wavefronts", "queue gain"});
  for (int spes : {2, 4, 8, 16}) {
    CellConfig cfg = qs20();
    cfg.num_spes = spes;
    CellSimOptions q, b;
    q.block_side = b.block_side = 64;
    b.barrier_wavefront = true;
    const double tq = simulate_cellnpdp(inst, cfg, q).seconds;
    const double tb = simulate_cellnpdp(inst, cfg, b).seconds;
    t.row(spes, fmt_seconds(tq), fmt_seconds(tb), fmt_x(tb / tq));
  }
  t.print();
  std::printf("(the gap widens with core count: barriers leave SPEs idle "
              "at the tail of every wavefront — the paper's argument for "
              "the dependence-graph queue)\n");
}


// --- (7) semiring instantiations -----------------------------------------

namespace legacy {

// Verbatim copy of the hand-written (min,+) computing block the engine
// shipped before the semiring template refactor. Racing it against
// semiring_cb<MinPlusSemiring> proves the generic kernel kept the codegen
// (the acceptance bar is < 2% throughput regression).
template <class T, int W, std::size_t... K>
inline Vec<T, W> minplus_row(Vec<T, W> c, Vec<T, W> a, const Vec<T, W>* b,
                             std::index_sequence<K...>) {
  ((c = vmin(c, Vec<T, W>::template splat<K>(a) + b[K])), ...);
  return c;
}

template <class T, int W>
inline void minplus_cb(T* C, index_t sc, const T* A, index_t sa, const T* B,
                       index_t sb) {
  using V = Vec<T, W>;
  V b[W];
  for (int k = 0; k < W; ++k) b[k] = V::load(B + k * sb);
  for (int r = 0; r < W; ++r) {
    V c = V::load(C + r * sc);
    const V a = V::load(A + r * sa);
    c = minplus_row<T, W>(c, a, b, std::make_index_sequence<W>{});
    c.store(C + r * sc);
  }
}

}  // namespace legacy

void ablate_semirings(const BenchConfig& cfg, BenchJson& json) {
  const index_t n = cfg.full ? 2048 : 1024;
  std::printf("\n(7) Semiring instantiations (native kernel, n=%ld, single "
              "thread):\n", static_cast<long>(n));

  // (a) Full solves: the same geometry through every instantiation. The
  // optimisation semirings share one inner loop shape, so their times
  // should be near-identical; counting swaps min for + (and loses the
  // idempotent early-out in finalize).
  TextTable t({"semiring", "time", "vs min-plus"});
  double minplus_s = 0;
  for (std::uint8_t sr = 0; sr < kSemiringCount; ++sr) {
    const auto id = static_cast<SemiringId>(sr);
    NpdpInstance<float> inst;
    inst.n = n;
    inst.semiring = id;
    inst.init = [id](index_t i, index_t j) {
      // Keep counting cells at 1.0 (products stay 1.0 forever: no
      // overflow at bench sizes); log-space workloads get <= 0 seeds.
      switch (id) {
        case SemiringId::Counting: return 1.0f;
        case SemiringId::ViterbiLog: return -float((i + j) % 100) - 1.0f;
        default: return i == j ? 0.0f : float((i + j) % 100);
      }
    };
    NpdpOptions o;
    o.block_side = 64;
    Stopwatch sw;
    auto out = solve_blocked(inst, o);
    const double s = sw.seconds();
    volatile float sink = out.at(0, n - 1);
    (void)sink;
    if (id == SemiringId::MinPlus) minplus_s = s;
    t.row(std::string(semiring_name(id)), fmt_seconds(s),
          fmt_x(s / minplus_s));
    json.record()
        .set("section", "solve")
        .set("semiring", std::string(semiring_name(id)))
        .set("n", n)
        .set("block", 64)
        .set("seconds", s)
        .set("vs_minplus", s / minplus_s);
  }
  t.print();

  // (b) Kernel micro-race: the pre-refactor hand-written min-plus block
  // against the semiring template instantiated with min-plus, on hot
  // tiles. Best-of-5 to shave scheduler noise.
  constexpr int W = 8;
  constexpr index_t stride = W;
  constexpr int reps = 4000;
  aligned_vector<float> c(W * stride, 10.0f), a(W * stride, 3.0f),
      b(W * stride, 4.0f);
  auto race = [&](auto&& kernel) {
    double best = 1e100;
    for (int round = 0; round < 5; ++round) {
      Stopwatch sw;
      for (int i = 0; i < reps; ++i)
        kernel(c.data(), stride, a.data(), stride, b.data(), stride);
      best = std::min(best, sw.seconds());
    }
    volatile float sink = c[0];
    (void)sink;
    return best;
  };
  const double legacy_s = race(legacy::minplus_cb<float, W>);
  const double generic_s = race(minplus_cb<float, W>);
  const double regression_pct = (generic_s - legacy_s) / legacy_s * 100.0;
  TextTable k({"kernel (8x8 float tile)", "best of 5", "regression"});
  k.row("hand-written (pre-refactor)", fmt_seconds(legacy_s), "--");
  k.row("semiring template (min-plus)", fmt_seconds(generic_s),
        fmt_pct(regression_pct / 100.0));
  k.print();
  json.record()
      .set("section", "kernel")
      .set("legacy_seconds", legacy_s)
      .set("generic_seconds", generic_s)
      .set("minplus_regression_pct", regression_pct);
  std::printf("(the semiring ops inline to the same vmin/add sequence; any "
              "regression beyond noise means a specialisation broke)\n");
}

}  // namespace
}  // namespace cellnpdp

int main(int argc, char** argv) {
  using namespace cellnpdp;
  const auto cfg = BenchConfig::from_args(argc, argv);
  print_bench_header("Ablations: scheduling blocks, register caching, "
                     "kernel width, prefetch, split traceback, scheduler, "
                     "semirings",
                     cfg);
  ablate_sched_block(cfg);
  ablate_register_caching(cfg);
  ablate_kernel_width(cfg);
  ablate_prefetch(cfg);
  ablate_traceback(cfg);
  ablate_scheduler(cfg);
  BenchJson json("semiring", cfg);
  ablate_semirings(cfg, json);
  return 0;
}

// Cell simulator tests: event core, bus, SPU pipeline model, the work
// model's exact agreement with the real engine, and end-to-end simulation
// properties (functional correctness, determinism, scaling shape).
#include <gtest/gtest.h>

#include <sstream>

#include "cellsim/npdp_sim.hpp"
#include "cellsim/spu_interp.hpp"
#include "cellsim/variants.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

TEST(EventQueue, RunsInTimeThenInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(2.0, [&] { order.push_back(3); });
  q.at(1.0, [&] { order.push_back(1); });
  q.at(1.0, [&] { order.push_back(2); });  // same instant: insertion order
  q.at(3.0, [&] { order.push_back(4); });
  const double end = q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(end, 3.0);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.at(1.0, [&] {
    ++fired;
    q.after(1.0, [&] { ++fired; });
  });
  EXPECT_EQ(q.run(), 2.0);
  EXPECT_EQ(fired, 2);
}

TEST(MemoryBus, SerializesOverlappingTransfers) {
  MemoryBus bus(100.0, 0.5);  // 100 B/s, 0.5 s command latency
  const double d1 = bus.transfer(0.0, 100, 1);  // busy 0..1, done 1.5
  const double d2 = bus.transfer(0.0, 100, 1);  // busy 1..2, done 2.5
  EXPECT_DOUBLE_EQ(d1, 1.5);
  EXPECT_DOUBLE_EQ(d2, 2.5);
  EXPECT_EQ(bus.stats().bytes, 200);
  EXPECT_EQ(bus.stats().commands, 2);
  EXPECT_DOUBLE_EQ(bus.stats().busy_seconds, 2.0);
}

TEST(SpuPipeline, DependentChainPaysFullLatency) {
  SpuProgram p;
  const int a = p.emit(SpuOp::Load);
  const int b = p.emit(SpuOp::Load);
  const int c = p.emit(SpuOp::Add, a, b);
  const int d = p.emit(SpuOp::Add, c, c);
  (void)d;
  const SpuLatencies sp = spu_latencies(Precision::Single);
  // load@0 (ready 6), load@1 (ready 7), add@7 (ready 13), add@13 (ready 19)
  EXPECT_EQ(simulate_spu_cycles(p, sp), 19);
}

TEST(SpuPipeline, DualIssueOnDifferentPipesSingleIssueOnSame) {
  const SpuLatencies sp = spu_latencies(Precision::Single);
  {
    SpuProgram p;  // two independent loads: same pipe, 2 issue cycles
    p.emit(SpuOp::Load);
    p.emit(SpuOp::Load);
    EXPECT_EQ(simulate_spu_cycles(p, sp), 7);  // second load issues at 1
  }
  {
    SpuProgram p;  // load + independent add: different pipes, same cycle
    p.emit(SpuOp::Load);
    const int x = p.emit(SpuOp::Add, -1, -1);
    (void)x;
    EXPECT_EQ(simulate_spu_cycles(p, sp), 6);  // both issue at cycle 0
  }
}

TEST(SpuPipeline, DpfpAddStallsThePipe) {
  const SpuLatencies dp = spu_latencies(Precision::Double);
  SpuProgram p;
  p.emit(SpuOp::Add);
  p.emit(SpuOp::Add);  // independent, same pipe: must wait out the stall
  // first add: issue 0, pipe blocked through cycle 6; second: issue 7,
  // result ready 7+13 = 20.
  EXPECT_EQ(simulate_spu_cycles(p, dp), 20);
}

TEST(SpuPipeline, KernelProgramHasTableIInstructionMix) {
  const SpuProgram p = make_cb_kernel_program(4);
  int counts[6] = {0};
  for (const auto& in : p.instrs) counts[static_cast<int>(in.op)]++;
  EXPECT_EQ(counts[static_cast<int>(SpuOp::Load)], 12);
  EXPECT_EQ(counts[static_cast<int>(SpuOp::Shuffle)], 16);
  EXPECT_EQ(counts[static_cast<int>(SpuOp::Add)], 16);
  EXPECT_EQ(counts[static_cast<int>(SpuOp::Cmp)], 16);
  EXPECT_EQ(counts[static_cast<int>(SpuOp::Sel)], 16);
  EXPECT_EQ(counts[static_cast<int>(SpuOp::Store)], 4);
  EXPECT_EQ(static_cast<int>(p.instrs.size()), 80);
}

TEST(SpuPipeline, SpKernelRetiresNearPaper54Cycles) {
  const SpuLatencies sp = spu_latencies(Precision::Single);
  const int steady = kernel_steady_cycles(4, sp);
  // Lower bound: 48 pipe-0 instructions; the paper reports 54 with its
  // hand schedule. Our model must land in that neighbourhood.
  EXPECT_GE(steady, 48);
  EXPECT_LE(steady, 64);
}

TEST(SpuPipeline, DpKernelIsMuchSlowerPerElement) {
  const SpuLatencies sp = spu_latencies(Precision::Single);
  const SpuLatencies dp = spu_latencies(Precision::Double);
  const double sp_per_relax = double(kernel_steady_cycles(4, sp)) / 64.0;
  const double dp_per_relax = double(kernel_steady_cycles(2, dp)) / 8.0;
  EXPECT_GT(dp_per_relax / sp_per_relax, 3.0)
      << "2 lanes + 13-cycle latency + 6-cycle stall must show";
}

// --- work model vs the real engine -----------------------------------

struct WorkCase {
  index_t n;
  index_t bs;
};

class WorkModelTest : public ::testing::TestWithParam<WorkCase> {};

TEST_P(WorkModelTest, MatchesEngineCountsExactly) {
  const auto [n, bs] = GetParam();
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(1, i, j);
  };
  NpdpOptions opts;
  opts.block_side = bs;
  opts.kernel = KernelKind::Native;  // width 4 == simulated SPE width (SP)
  SolveStats ss;
  solve_blocked(inst, opts, &ss);
  const EngineStats& stats = ss.engine;

  const BlockWork model = total_work(n, bs, 4);
  EXPECT_EQ(model.kernel_calls, stats.kernel_calls);
  EXPECT_EQ(model.scalar_relax, stats.scalar_relax());
  EXPECT_EQ(model.cells, stats.cells_finalized);
}

INSTANTIATE_TEST_SUITE_P(Geometries, WorkModelTest,
                         ::testing::Values(WorkCase{8, 8}, WorkCase{32, 8},
                                           WorkCase{64, 16}, WorkCase{100, 16},
                                           WorkCase{96, 32},
                                           WorkCase{130, 32}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_bs" +
                                  std::to_string(info.param.bs);
                         });

// --- end-to-end simulation --------------------------------------------

TEST(CellSim, FunctionalModeProducesTheReferenceAnswer) {
  NpdpInstance<float> inst;
  inst.n = 100;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(77, i, j);
  };
  CellSimOptions sopts;
  sopts.mode = ExecMode::Functional;
  sopts.block_side = 16;
  BlockedTriangularMatrix<float> out(1, 16);
  const auto res = simulate_cellnpdp(inst, qs20(), sopts, &out);
  EXPECT_GT(res.seconds, 0.0);
  const auto ref = solve_reference(inst);
  EXPECT_EQ(max_abs_diff(ref, to_triangular(out)), 0.0);
}

TEST(CellSim, TimingOnlyMatchesFunctionalTiming) {
  NpdpInstance<float> inst;
  inst.n = 128;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(7, i, j);
  };
  CellSimOptions t, f;
  t.mode = ExecMode::TimingOnly;
  f.mode = ExecMode::Functional;
  t.block_side = f.block_side = 32;
  const auto rt = simulate_cellnpdp(inst, qs20(), t);
  const auto rf = simulate_cellnpdp(inst, qs20(), f);
  EXPECT_DOUBLE_EQ(rt.seconds, rf.seconds);
  EXPECT_EQ(rt.dma_bytes_in, rf.dma_bytes_in);
  EXPECT_EQ(rt.dma_commands, rf.dma_commands);
}

TEST(CellSim, DeterministicAcrossRuns) {
  NpdpInstance<float> inst;
  inst.n = 512;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 64;
  const auto a = simulate_cellnpdp(inst, qs20(), o);
  const auto b = simulate_cellnpdp(inst, qs20(), o);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.dma_bytes_in, b.dma_bytes_in);
}

TEST(CellSim, MoreSpesAreFasterUntilBandwidthBound) {
  NpdpInstance<float> inst;
  inst.n = 1024;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 64;
  double prev = 1e30;
  for (int spes : {1, 2, 4, 8, 16}) {
    CellConfig cfg = qs20();
    cfg.num_spes = spes;
    const auto r = simulate_cellnpdp(inst, cfg, o);
    EXPECT_LE(r.seconds, prev * 1.001) << spes << " SPEs slower than fewer";
    prev = r.seconds;
  }
}

TEST(CellSim, SmallerBlocksMoveMoreDataAndRunSlower) {
  // Fig. 13's mechanism at the paper's size (n = 4096): halving the block
  // side roughly doubles fetched bytes; tiny blocks lose clearly (DMA
  // efficiency + pipeline drains at 1 SPE, bandwidth saturation at 16).
  // Near the top of the range the surface is nearly flat — the wavefront
  // critical path trades against DMA efficiency — so the strict check is
  // smallest-vs-largest, not pairwise monotonicity.
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  for (int spes : {1, 16}) {
    CellConfig cfg = qs20();
    cfg.num_spes = spes;
    index_t prev_bytes = 0;
    double sec88 = 0.0, sec32 = 0.0;
    for (index_t bs : {88, 64, 44, 32, 16}) {
      CellSimOptions o;
      o.block_side = bs;
      const auto r = simulate_cellnpdp(inst, cfg, o);
      if (prev_bytes > 0) {
        EXPECT_GT(r.dma_bytes_in, prev_bytes) << "bs=" << bs;
      }
      prev_bytes = r.dma_bytes_in;
      if (bs == 88) sec88 = r.seconds;
      if (bs == 32) sec32 = r.seconds;
      if (bs == 16) {
        EXPECT_GT(r.seconds, sec88 * 1.05) << "spes=" << spes;
        EXPECT_GT(r.seconds, sec32 * 1.05) << "spes=" << spes;
      }
    }
  }
}

TEST(CellSim, UtilizationIsRoughlySizeIndependent) {
  // §V's headline: utilization does not depend on the problem size (once
  // the block grid is large enough that the wavefront tail is amortised).
  NpdpInstance<float> a, b;
  a.n = 8192;
  b.n = 16384;
  a.init = b.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 64;
  const auto ra = simulate_cellnpdp(a, qs20(), o);
  const auto rb = simulate_cellnpdp(b, qs20(), o);
  EXPECT_NEAR(ra.utilization, rb.utilization, 0.15 * ra.utilization);
  EXPECT_GT(ra.utilization, 0.60) << "the paper's >60% headline";
  EXPECT_GT(rb.utilization, 0.60);
}

TEST(CellSim, SimdOffIsMuchSlower) {
  NpdpInstance<float> inst;
  inst.n = 512;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions simd, scalar;
  simd.block_side = scalar.block_side = 64;
  scalar.simd = false;
  CellConfig one = qs20();
  one.num_spes = 1;
  const auto rs = simulate_cellnpdp(inst, one, simd);
  const auto rn = simulate_cellnpdp(inst, one, scalar);
  EXPECT_GT(rn.seconds / rs.seconds, 5.0);
}

TEST(Variants, OriginalSpeTrafficFormula) {
  // n = 4: cells (i<j) = 6, relax = sum(j-i) = 10.
  const auto t = original_spe_traffic(4, Precision::Single);
  EXPECT_EQ(t.bytes, 2 * 10 * 4);
  EXPECT_EQ(t.commands, 10 + 6);
}

TEST(Variants, PpeCalibrationInterpolates) {
  // Exactly the calibrated values at the published sizes, monotone between.
  EXPECT_NEAR(ppe_cycles_per_relax(4096, Precision::Single), 199.8, 0.1);
  EXPECT_NEAR(ppe_cycles_per_relax(16384, Precision::Single), 820.8, 0.1);
  const double mid = ppe_cycles_per_relax(6000, Precision::Single);
  EXPECT_GT(mid, 199.8);
  EXPECT_LT(mid, 767.3);
}

TEST(Variants, OriginalVariantsAreOrdersOfMagnitudeSlowerThanSim) {
  const CellConfig cfg = qs20();
  NpdpInstance<float> inst;
  inst.n = 1024;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 64;
  const auto r = simulate_cellnpdp(inst, cfg, o);
  EXPECT_GT(time_original_spe(1024, Precision::Single, cfg) / r.seconds, 50.0);
  EXPECT_GT(time_original_ppe(1024, Precision::Single, cfg) / r.seconds, 20.0);
}

TEST(Config, MaxBlockSideRespectsLocalStoreBudget) {
  const CellConfig cfg = qs20();
  const index_t side_sp = cfg.max_block_side(Precision::Single);
  // (256KB - 48KB)/6 = ~35.5KB -> side ~94 for floats.
  EXPECT_GE(side_sp, 88);
  EXPECT_LE(side_sp, 96);
  const index_t side_dp = cfg.max_block_side(Precision::Double);
  EXPECT_LT(side_dp, side_sp);
  // 6 buffers of the returned side must actually fit.
  EXPECT_LE(6 * side_sp * side_sp * 4 + cfg.ls_code_bytes,
            cfg.local_store_bytes + 6 * (2 * side_sp + 1) * 4);
}

TEST(CellSim, PerSpeStatsAreConsistentAndBalanced) {
  // Balance needs enough tasks to amortise the wavefront tail: use the
  // paper's n = 4096 (2080 tasks over 16 SPEs).
  NpdpInstance<float> inst;
  inst.n = 4096;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 64;
  const auto r = simulate_cellnpdp(inst, qs20(), o);
  ASSERT_EQ(r.spe_busy.size(), 16u);
  ASSERT_EQ(r.spe_tasks.size(), 16u);

  double busy_sum = 0;
  index_t task_sum = 0;
  for (std::size_t s = 0; s < 16; ++s) {
    busy_sum += r.spe_busy[s];
    task_sum += r.spe_tasks[s];
    EXPECT_GT(r.spe_tasks[s], 0) << "SPE " << s << " never ran a task";
  }
  EXPECT_DOUBLE_EQ(busy_sum, r.spe_busy_seconds);
  EXPECT_EQ(task_sum, r.tasks);

  // The task-queue model must keep reasonable balance (paper: "keeps load
  // balance ... in parallel execution").
  const double mean = busy_sum / 16.0;
  for (std::size_t s = 0; s < 16; ++s)
    EXPECT_NEAR(r.spe_busy[s], mean, 0.30 * mean) << "SPE " << s;
}

// --- functional SPU interpreter ------------------------------------------

TEST(SpuInterp, KernelProgramComputesTheMinPlusRelaxation) {
  // Execute the modeled 80-instruction stream on real tiles and compare
  // against the scalar reference kernel: the timed program must BE the
  // computing-block relaxation.
  const auto kern = make_cb_kernel_semantics(4);
  const index_t stride = 16;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    aligned_vector<float> c0(4 * stride), a(4 * stride), b(4 * stride);
    SplitMix64 rng(seed);
    for (auto& x : c0) x = float(rng.next_in(0, 100));
    for (auto& x : a) x = float(rng.next_in(0, 100));
    for (auto& x : b) x = float(rng.next_in(0, 100));
    auto c1 = c0;
    interpret_spu_kernel(kern, c0.data(), stride, a.data(), stride, b.data(),
                         stride);
    minplus_tile_scalar<float>(c1.data(), stride, a.data(), stride, b.data(),
                               stride, 4);
    for (std::size_t i = 0; i < c0.size(); ++i)
      ASSERT_EQ(c0[i], c1[i]) << "cell " << i << " seed " << seed;
  }
}

TEST(SpuInterp, SemanticsStreamMatchesTimedStream) {
  // The annotated program and the timing program must be the same
  // instruction sequence (op-for-op), so the cycle counts apply to it.
  const auto sem = make_cb_kernel_semantics(4);
  const auto timed = make_cb_kernel_program(4);
  ASSERT_EQ(sem.prog.instrs.size(), timed.instrs.size());
  for (std::size_t i = 0; i < timed.instrs.size(); ++i)
    EXPECT_EQ(static_cast<int>(sem.prog.instrs[i].op),
              static_cast<int>(timed.instrs[i].op))
        << "instruction " << i;
}

TEST(SpuInterp, WorksForWidthTwo) {
  const auto kern = make_cb_kernel_semantics(2);
  const index_t stride = 8;
  aligned_vector<float> c0(2 * stride), a(2 * stride), b(2 * stride);
  SplitMix64 rng(4);
  for (auto& x : c0) x = float(rng.next_in(0, 10));
  for (auto& x : a) x = float(rng.next_in(0, 10));
  for (auto& x : b) x = float(rng.next_in(0, 10));
  auto c1 = c0;
  interpret_spu_kernel(kern, c0.data(), stride, a.data(), stride, b.data(),
                       stride);
  minplus_tile_scalar<float>(c1.data(), stride, a.data(), stride, b.data(),
                             stride, 2);
  for (index_t r = 0; r < 2; ++r)
    for (index_t c = 0; c < 2; ++c)
      EXPECT_EQ(c0[static_cast<std::size_t>(r * stride + c)],
                c1[static_cast<std::size_t>(r * stride + c)]);
}

TEST(CellSimTrace, EventsAreDisjointPerSpeAndCoverBusyTime) {
  NpdpInstance<float> inst;
  inst.n = 1024;
  inst.init = [](index_t, index_t) { return 1.0f; };
  CellSimOptions o;
  o.block_side = 64;
  o.record_trace = true;
  const auto r = simulate_cellnpdp(inst, qs20(), o);

  const index_t m = ceil_div(1024, 64);
  EXPECT_EQ(r.trace.size(), static_cast<std::size_t>(triangle_cells(m)));

  // Per-SPE intervals must not overlap, and their lengths must sum to the
  // per-SPE busy time.
  std::vector<std::vector<TraceEvent>> per_spe(16);
  for (const auto& ev : r.trace) {
    ASSERT_GE(ev.spe, 0);
    ASSERT_LT(ev.spe, 16);
    EXPECT_LT(ev.start, ev.end);
    per_spe[static_cast<std::size_t>(ev.spe)].push_back(ev);
  }
  for (std::size_t s = 0; s < 16; ++s) {
    auto& evs = per_spe[s];
    std::sort(evs.begin(), evs.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.start < b.start;
              });
    double busy = 0;
    for (std::size_t t = 0; t < evs.size(); ++t) {
      busy += evs[t].end - evs[t].start;
      if (t > 0) {
        EXPECT_GE(evs[t].start, evs[t - 1].end - 1e-12);
      }
    }
    EXPECT_NEAR(busy, r.spe_busy[s], 1e-9);
  }

  // CSV export round-trips the row count.
  std::ostringstream csv;
  r.write_trace_csv(csv);
  index_t lines = -1;  // header
  for (char ch : csv.str())
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, static_cast<index_t>(r.trace.size()));
}

}  // namespace
}  // namespace cellnpdp

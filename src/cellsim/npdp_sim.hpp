// Event-driven simulation of CellNPDP on the Cell machine model (§IV-C,
// Fig. 8): the PPE manages the task queue over scheduling blocks, SPEs
// execute them, double-buffering block DMA against computation.
//
// Two execution policies:
//   * Functional  - every block relaxation really runs through BlockEngine
//                   on host memory (results checkable against the native
//                   solvers) while time is charged by the models;
//   * TimingOnly  - only the work model is charged; lets the full
//                   n = 16384 runs of Table II finish in seconds.
#pragma once

#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "cellsim/config.hpp"
#include "cellsim/event_queue.hpp"
#include "cellsim/memory_bus.hpp"
#include "cellsim/spu_pipeline.hpp"
#include "cellsim/work_model.hpp"
#include "core/engine.hpp"
#include "core/instance.hpp"
#include "taskgraph/block_scheduler.hpp"

namespace cellnpdp {

enum class ExecMode { TimingOnly, Functional };

struct CellSimOptions {
  ExecMode mode = ExecMode::TimingOnly;
  bool simd = true;          ///< false: the "NDL only" ablation (scalar SPE)
  index_t block_side = 64;   ///< memory-block side (cells)
  index_t sched_side = 1;    ///< scheduling-block side (memory blocks)
  int prefetch_depth = 2;    ///< blocks in flight beyond the one computing
  bool enforce_local_store = true;  ///< reject blocks that cannot be
                                    ///< six-buffered in the local store
  bool barrier_wavefront = false;   ///< step-by-step schedule of the prior
                                    ///< works instead of the task queue
  bool record_trace = false;        ///< per-block execution trace (Gantt)
};

/// One computed memory block in the execution trace.
struct TraceEvent {
  int spe = 0;
  index_t bi = 0, bj = 0;
  double start = 0.0, end = 0.0;
};

struct CellSimResult {
  double seconds = 0.0;
  index_t dma_bytes_in = 0;
  index_t dma_bytes_out = 0;
  index_t dma_commands = 0;
  double spe_busy_seconds = 0.0;  ///< summed over SPEs (compute time)
  index_t tasks = 0;
  int kernel_cycles = 0;          ///< steady-state cycles per kernel call
  double useful_ops = 0.0;        ///< 32-bit ops, padding-adjusted
  double utilization = 0.0;       ///< useful ops/cycle over machine peak
  double ops_per_cycle = 0.0;
  BlockWork work;
  std::vector<double> spe_busy;   ///< per-SPE compute seconds
  std::vector<index_t> spe_tasks; ///< per-SPE tasks executed
  std::vector<TraceEvent> trace;  ///< per-block events (when recorded)

  /// Writes the trace as CSV (spe,bi,bj,start,end) for external plotting.
  void write_trace_csv(std::ostream& os) const {
    os << "spe,bi,bj,start,end\n";
    for (const auto& ev : trace)
      os << ev.spe << ',' << ev.bi << ',' << ev.bj << ',' << ev.start << ','
         << ev.end << '\n';
  }
};

namespace cellsim_detail {

template <class T>
constexpr Precision precision_of() {
  return sizeof(T) == 4 ? Precision::Single : Precision::Double;
}

}  // namespace cellsim_detail

/// Simulates CellNPDP for `inst` on machine `cfg`. In Functional mode and
/// when `out` is non-null, the solved table is written there.
template <class T>
CellSimResult simulate_cellnpdp(const NpdpInstance<T>& inst,
                                const CellConfig& cfg,
                                const CellSimOptions& opts,
                                BlockedTriangularMatrix<T>* out = nullptr) {
  const Precision prec = cellsim_detail::precision_of<T>();
  const SpuLatencies lat = spu_latencies(prec);
  const index_t bs = opts.block_side;
  const index_t block_bytes = bs * bs * precision_bytes(prec);
  const index_t m = ceil_div(inst.n, bs);

  // The paper's §III constraint: six block buffers (current triple +
  // prefetched triple) plus the code image must fit in the local store.
  if (opts.enforce_local_store &&
      cfg.ls_buffers * block_bytes + cfg.ls_code_bytes >
          cfg.local_store_bytes) {
    throw std::invalid_argument(
        "memory block too large for the local store: " +
        std::to_string(cfg.ls_buffers) + " x " + std::to_string(block_bytes) +
        "B + code exceeds " + std::to_string(cfg.local_store_bytes) + "B");
  }

  // SIMD width on the 128-bit SPE: 4 floats or 2 doubles.
  const index_t w = prec == Precision::Single ? 4 : 2;
  const int kcycles = kernel_steady_cycles(static_cast<int>(w), lat);
  // Software pipelining drains at the end of every tile-row run; smaller
  // blocks restart the pipeline more often per unit of work (§VI-D).
  const int kdrain =
      kernel_cold_cycles(static_cast<int>(w), lat) - kcycles;
  const index_t tiles_per_row = bs / w;
  const double scalar_cpr = cfg.spe_scalar_cycles_per_relax(prec);
  // Finalisation / loop bookkeeping per cell in the corner walks.
  const double finalize_cycles = 2.0;

  // Functional state.
  std::unique_ptr<BlockedTriangularMatrix<T>> mat;
  std::unique_ptr<BlockEngine<T>> engine;
  if (opts.mode == ExecMode::Functional) {
    mat = std::make_unique<BlockedTriangularMatrix<T>>(inst.n, bs);
    NpdpOptions eopts;
    eopts.block_side = bs;
    eopts.kernel = opts.simd ? KernelKind::Native : KernelKind::Scalar;
    engine = std::make_unique<BlockEngine<T>>(*mat, inst, eopts);
  }

  auto compute_seconds = [&](const BlockWork& bw) {
    double cycles;
    if (opts.simd) {
      const double drains =
          double(bw.kernel_calls) / double(tiles_per_row);
      cycles = double(bw.kernel_calls) * kcycles + drains * kdrain +
               double(bw.scalar_relax) * scalar_cpr +
               double(bw.cells) * finalize_cycles;
    } else {
      // Scalar ablation: every relaxation (kernel-covered ones included)
      // costs the scalar rate. kernel_calls * w^3 relaxations inside tiles.
      cycles = (double(bw.kernel_calls) * double(w * w * w) +
                double(bw.scalar_relax)) *
                   scalar_cpr +
               double(bw.cells) * finalize_cycles;
    }
    return cycles / cfg.clock_hz;
  };

  // --- simulation state ----------------------------------------------
  EventQueue q;
  MemoryBus bus(cfg.memory_bandwidth, cfg.dma_cmd_latency,
                cfg.dma_overhead_bytes);
  const index_t ss = opts.sched_side < 1 ? 1 : opts.sched_side;
  const index_t ms = ceil_div(m, ss);
  BlockTracker tracker(ms);
  const BlockDependenceGraph& graph = tracker.graph();

  struct Step {
    index_t bi, bj;
    BlockWork work;
    double compute_s;
  };
  struct SpeState {
    bool busy = false;
    std::vector<Step> steps;
    index_t cur_task = -1;
    std::size_t dma_next = 0;      // next step to fetch
    std::size_t comp_next = 0;     // next step to compute
    std::vector<char> data_ready;
    bool computing = false;
    double busy_seconds = 0.0;
    double put_done = 0.0;         // completion time of last writeback
    index_t tasks_run = 0;
  };
  std::vector<SpeState> spes(static_cast<std::size_t>(cfg.num_spes));
  std::vector<index_t> ready_tasks;
  std::vector<int> idle_spes;
  for (int s = 0; s < cfg.num_spes; ++s) idle_spes.push_back(s);

  // Barrier-wavefront mode (§II-B prior works): tasks grouped by
  // anti-diagonal; the next group is released only when the whole current
  // group has finished.
  std::vector<std::vector<index_t>> wavefronts;
  index_t wf_current = 0;
  index_t wf_remaining = 0;
  if (opts.barrier_wavefront) {
    wavefronts.assign(static_cast<std::size_t>(ms), {});
    for (index_t id = 0; id < graph.task_count(); ++id) {
      const auto [si, sj] = graph.coords(id);
      wavefronts[static_cast<std::size_t>(sj - si)].push_back(id);
    }
    ready_tasks = wavefronts[0];
    wf_remaining = static_cast<index_t>(wavefronts[0].size());
  } else {
    for (index_t id : tracker.initial_ready()) ready_tasks.push_back(id);
  }

  CellSimResult res;
  res.kernel_cycles = kcycles;

  // Builds the step list of one scheduling-block task.
  auto build_steps = [&](index_t si, index_t sj) {
    std::vector<Step> steps;
    const index_t col_lo = sj * ss, col_hi = std::min(m, (sj + 1) * ss);
    const index_t row_lo = si * ss, row_hi = std::min(m, (si + 1) * ss);
    for (index_t bj = col_lo; bj < col_hi; ++bj)
      for (index_t bi = std::min(bj, row_hi - 1); bi >= row_lo; --bi) {
        Step st;
        st.bi = bi;
        st.bj = bj;
        st.work = block_work(bi, bj, bs, w);
        st.compute_s = compute_seconds(st.work);
        steps.push_back(st);
      }
    return steps;
  };

  // Forward declarations via std::function (the handlers recurse).
  std::function<void(int)> pump_spe;
  std::function<void()> dispatch;

  auto finish_task = [&](int s) {
    SpeState& spe = spes[static_cast<std::size_t>(s)];
    const index_t id = spe.cur_task;
    spe.busy = false;
    spe.steps.clear();
    // PPE receives the finished task and releases dependents.
    q.after(cfg.ppe_dispatch_seconds, [&, id, s] {
      if (opts.barrier_wavefront) {
        if (--wf_remaining == 0 &&
            ++wf_current < static_cast<index_t>(wavefronts.size())) {
          ready_tasks = wavefronts[static_cast<std::size_t>(wf_current)];
          wf_remaining = static_cast<index_t>(ready_tasks.size());
        }
      } else {
        const auto [si, sj] = graph.coords(id);
        tracker.finish(si, sj,
                       [&](index_t next) { ready_tasks.push_back(next); });
      }
      idle_spes.push_back(s);
      dispatch();
    });
  };

  pump_spe = [&](int s) {
    SpeState& spe = spes[static_cast<std::size_t>(s)];
    // Issue DMA gets up to the prefetch window.
    while (spe.dma_next < spe.steps.size() &&
           spe.dma_next <
               spe.comp_next + 1 + static_cast<std::size_t>(opts.prefetch_depth)) {
      const std::size_t i = spe.dma_next++;
      const Step& st = spe.steps[i];
      const index_t bytes = st.work.dma_blocks_in * block_bytes;
      const double done =
          bus.transfer(q.now(), bytes, st.work.dma_blocks_in);
      res.dma_bytes_in += bytes;
      q.at(done, [&, s, i] {
        spes[static_cast<std::size_t>(s)].data_ready[i] = 1;
        pump_spe(s);
      });
    }
    // Start the next compute if its data is resident.
    if (!spe.computing && spe.comp_next < spe.steps.size() &&
        spe.data_ready[spe.comp_next]) {
      spe.computing = true;
      const std::size_t i = spe.comp_next;
      const Step st = spe.steps[i];
      const double compute_begin = q.now();
      q.after(st.compute_s, [&, s, i, st, compute_begin] {
        SpeState& sp = spes[static_cast<std::size_t>(s)];
        if (engine) engine->compute_block(st.bi, st.bj);
        if (opts.record_trace)
          res.trace.push_back({s, st.bi, st.bj, compute_begin, q.now()});
        sp.busy_seconds += st.compute_s;
        res.work += st.work;
        // Asynchronous put of the finished block.
        const index_t obytes = st.work.dma_blocks_out * block_bytes;
        sp.put_done = bus.transfer(q.now(), obytes, st.work.dma_blocks_out);
        res.dma_bytes_out += obytes;
        sp.computing = false;
        sp.comp_next = i + 1;
        if (sp.comp_next == sp.steps.size()) {
          // Task ends when the last writeback lands.
          q.at(std::max(q.now(), sp.put_done), [&, s] { finish_task(s); });
        } else {
          pump_spe(s);
        }
      });
    }
  };

  dispatch = [&] {
    while (!ready_tasks.empty() && !idle_spes.empty()) {
      const index_t id = ready_tasks.front();
      ready_tasks.erase(ready_tasks.begin());
      const int s = idle_spes.back();
      idle_spes.pop_back();
      const auto [si, sj] = graph.coords(id);
      SpeState& spe = spes[static_cast<std::size_t>(s)];
      spe.busy = true;
      ++spe.tasks_run;
      spe.cur_task = id;
      spe.steps = build_steps(si, sj);
      spe.dma_next = 0;
      spe.comp_next = 0;
      spe.computing = false;
      spe.data_ready.assign(spe.steps.size(), 0);
      ++res.tasks;
      q.after(cfg.ppe_dispatch_seconds, [&, s] { pump_spe(s); });
    }
  };

  q.after(0.0, dispatch);
  res.seconds = q.run();

  for (const auto& spe : spes) {
    res.spe_busy_seconds += spe.busy_seconds;
    res.spe_busy.push_back(spe.busy_seconds);
    res.spe_tasks.push_back(spe.tasks_run);
  }
  res.dma_commands = bus.stats().commands;

  // Utilization accounting (§VI-A.4): a useful 32-bit operation counts as
  // one scalar instruction; a W-wide SIMD instruction executes W (2W for
  // doubles counted as 64-bit pairs — we count 32-bit-equivalent lanes
  // of real work, i.e. w lanes per instruction).
  const auto ops = cb_op_counts_cached(static_cast<int>(w));
  res.useful_ops = double(res.work.kernel_calls) * ops.total() * double(w) +
                   double(res.work.scalar_relax) * 4.0;
  // Peak = dual issue * lanes at this precision per SPE.
  const double peak_ops_per_cycle =
      double(cfg.num_spes) * 2.0 * double(w == 2 ? 2 : 4);
  if (res.seconds > 0) {
    res.ops_per_cycle = res.useful_ops / (res.seconds * cfg.clock_hz);
    res.utilization = res.ops_per_cycle / peak_ops_per_cycle;
  }

  if (out != nullptr && mat != nullptr) *out = std::move(*mat);
  return res;
}

}  // namespace cellnpdp

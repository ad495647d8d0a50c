// Top-level blocked solve: the public entry point of the library.
//
// solve_blocked_into(mat, inst, ctx) runs every blocked configuration —
// one worker or many, with or without block retry and checksum repair —
// as one per-block step driven by the one block scheduler
// (taskgraph/block_scheduler.hpp); solve_blocked(inst, opts, stats) is its
// allocating form. A task is a scheduling block of tuning.sched_side x
// sched_side memory blocks, walked inside in the Fig. 4(b) order: columns
// ascending, rows descending. With one worker and sched_side 1 the whole
// solve walks the Fig. 4(b) order on the calling thread.
//
// Each memory block is seeded by the step that relaxes it
// (BlockEngine::compute_block), so no pass runs before the scheduler and
// the table only needs the semiring zero as its pad. Cancellation is
// polled at memory-block granularity (one relaxed atomic load per block,
// nothing on the kernel path): a cancelled solve returns
// SolveStatus::Cancelled with a partial but never torn matrix — every
// block is either fully relaxed or still holds what the caller's table
// held before the solve.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common/fault_hook.hpp"
#include "core/engine.hpp"
#include "core/execution_context.hpp"
#include "core/instance.hpp"
#include "layout/blocked.hpp"
#include "layout/checksum.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "taskgraph/block_scheduler.hpp"

namespace cellnpdp {

namespace detail {

/// Test/bench hook: fires the BlockCorrupt site and, when it fires,
/// scribbles deterministic garbage over the first half of the block —
/// modelling a torn DMA. The garbage is negative, below any reachable
/// cell value, so it cannot be silently absorbed by further min()s; only
/// detection and a recompute, which re-seeds the block, fix it.
template <class T>
void maybe_corrupt_block(BlockedTriangularMatrix<T>& mat, index_t bi,
                         index_t bj) {
  FaultHook* hook = fault_hook();
  if (hook == nullptr || !hook->fire(FaultSite::BlockCorrupt, bi, bj)) return;
  T* b = mat.block(bi, bj);
  const index_t half = mat.cells_per_block() / 2;
  for (index_t c = 0; c < half; ++c)
    b[c] = static_cast<T>(-1e6) - static_cast<T>(c % 97);
}

/// Runs `engine` over `sched`, whose task (si,sj) covers the
/// sched_side-square of memory blocks at (si,sj), walked columns
/// ascending, rows descending. Every memory block goes through the one
/// per-block step. In order: cancel poll; the relaxation, re-run when it
/// throws and ctx.retry allows; with checksums, a record/verify round-trip
/// that recomputes a corrupted block; work counted into the calling
/// worker's own EngineStats; then on_finished(bi, bj). compute_block seeds
/// the block on every run, and a re-run re-reads exactly what the first
/// run read (its inputs are final), so it lands bit-identical. Fills
/// ctx.stats (when set). Returns true when every task of the triangle
/// finished; rethrows a block that failed past its retries.
template <class T, class S, class OnFinished>
bool run_blocks(BlockScheduler& sched, BlockEngine<T, S>& engine,
                BlockedTriangularMatrix<T>& mat, const ExecutionContext& ctx,
                index_t sched_side, bool checksums, OnFinished&& on_finished) {
  static obs::Counter& retries_ctr =
      obs::metrics().counter("sched.block_retries");
  static obs::Counter& repairs_ctr =
      obs::metrics().counter("sched.block_repairs");
  std::unique_ptr<BlockChecksums<T>> sums;
  if (checksums) sums = std::make_unique<BlockChecksums<T>>(mat);
  std::atomic<index_t> retries{0}, repairs{0};
  const int max_attempts = ctx.retry.enabled() ? ctx.retry.max_attempts : 1;

  auto relax_with_retry = [&](index_t bi, index_t bj, EngineStats* st) {
    for (int attempt = 1;; ++attempt) {
      try {
        maybe_inject_task_fault(bi, bj);
        engine.compute_block(bi, bj, st);
        return;
      } catch (...) {
        if (attempt >= max_attempts || ctx.cancelled()) throw;
      }
      ++retries;
      retries_ctr.add();
      CELLNPDP_TRACE_INSTANT("sched", "block_retry", bi, bj);
      const auto delay = ctx.retry.backoff(
          attempt + 1, (static_cast<std::uint64_t>(bi) << 32) ^
                           static_cast<std::uint64_t>(bj));
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
    }
  };
  auto step = [&](index_t bi, index_t bj, EngineStats& local) {
    if (ctx.poll()) return false;
    EngineStats* st = ctx.stats != nullptr ? &local : nullptr;
    if (fault_hook() == nullptr) {
      // Hot path: no try region around the kernel. compute_block itself
      // does not throw; the retry scaffolding exists for the fault harness
      // (and for genuinely transient failures on faulty hardware).
      engine.compute_block(bi, bj, st);
    } else {
      relax_with_retry(bi, bj, st);
    }
    if (sums != nullptr) {
      sums->record(bi, bj);
      maybe_corrupt_block(mat, bi, bj);
      if (!sums->verify(bi, bj)) {
        ++repairs;
        repairs_ctr.add();
        CELLNPDP_TRACE_INSTANT("sched", "block_repair", bi, bj);
        engine.compute_block(bi, bj, st);
        sums->record(bi, bj);
      }
    }
    on_finished(bi, bj);
    return true;
  };
  const index_t m = engine.blocks_per_side();
  auto task = [&](index_t si, index_t sj, EngineStats& local) {
    const index_t col_hi = std::min(m, (sj + 1) * sched_side);
    const index_t row_lo = si * sched_side;
    const index_t row_hi = std::min(m, (si + 1) * sched_side);
    for (index_t bj = sj * sched_side; bj < col_hi; ++bj)
      for (index_t bi = std::min(bj, row_hi - 1); bi >= row_lo; --bi)
        if (!step(bi, bj, local)) return false;
    return true;
  };
  EngineStats total;
  const bool complete = sched.run(task, &total, ctx.stats);
  if (ctx.stats != nullptr) {
    ctx.stats->engine = total;
    ctx.stats->block_retries = retries.load();
    ctx.stats->block_repairs = repairs.load();
  }
  return complete;
}

}  // namespace detail

/// Blocked solve into a caller-owned matrix, which must already match the
/// instance/context geometry and have the semiring zero as its pad(). Its
/// cells may hold anything — a previous solve, a cancelled one, garbage:
/// every block is seeded before it is relaxed, so a serving layer can
/// reuse one arena across requests of the same shape without clearing
/// it. Runs ctx.tuning.threads workers; re-runs a block that throws up to
/// ctx.retry.max_attempts; with `checksums`, verifies every block after
/// relaxation and repairs a mismatch. Dispatches on inst.semiring.
template <class T>
SolveStatus solve_blocked_into(BlockedTriangularMatrix<T>& mat,
                               const NpdpInstance<T>& inst,
                               const ExecutionContext& ctx,
                               bool checksums = false) {
  CELLNPDP_TRACE_SPAN("solve", "solve_blocked");
  return with_semiring<T>(inst.semiring, [&](auto s) {
    BlockEngine<T, decltype(s)> engine(mat, inst, ctx.tuning);
    const index_t ss = std::max<index_t>(1, ctx.tuning.sched_side);
    BlockScheduler::Options o;
    o.side = ceil_div(engine.blocks_per_side(), ss);
    o.workers = ctx.tuning.threads;
    BlockScheduler sched(o);
    return detail::run_blocks(sched, engine, mat, ctx, ss, checksums,
                              [](index_t, index_t) {})
               ? SolveStatus::Ok
               : SolveStatus::Cancelled;
  });
}

/// Allocating form: solves into a fresh matrix and returns it.
template <class T>
BlockedTriangularMatrix<T> solve_blocked(const NpdpInstance<T>& inst,
                                         const NpdpOptions& opts,
                                         SolveStats* ss = nullptr) {
  BlockedTriangularMatrix<T> mat(inst.n, opts.block_side,
                                 semiring_zero<T>(inst.semiring));
  ExecutionContext ctx;
  ctx.tuning = opts;
  ctx.stats = ss;
  solve_blocked_into(mat, inst, ctx);
  return mat;
}

}  // namespace cellnpdp

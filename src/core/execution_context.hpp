// ExecutionContext: the one bundle of cross-cutting solve state threaded
// through every solve path — cancellation token + deadline, the stats sink
// for observability, engine tuning parameters, an optional reusable arena,
// and the per-block retry budget. The SolverBackend registry (src/backend)
// passes exactly one of these to whichever engine the caller resolved by
// name.
#pragma once

#include <chrono>

#include "common/cancel.hpp"
#include "common/retry.hpp"
#include "core/engine.hpp"
#include "core/instance.hpp"
#include "layout/blocked.hpp"
#include "taskgraph/block_scheduler.hpp"

namespace cellnpdp {

/// How a solve ended. Cancellation is cooperative: Cancelled means the
/// solver observed the token and stopped at a memory-block boundary, so
/// the worker is free but the matrix holds a partial (never torn) result.
enum class SolveStatus { Ok, Cancelled };

constexpr const char* solve_status_name(SolveStatus s) {
  return s == SolveStatus::Ok ? "ok" : "cancelled";
}

/// Telemetry of one solve: the scheduler's wall, per-worker busy and
/// stall time, the engine work counters summed over workers, and what
/// recovery did. Attach to an ExecutionContext to enable collection; it
/// costs nothing on the kernel path beyond the counters.
struct SolveStats : ScheduleStats {
  EngineStats engine;         ///< summed across workers
  index_t block_retries = 0;  ///< block re-runs after a thrown fault
  index_t block_repairs = 0;  ///< block re-runs after a checksum mismatch
};

struct ExecutionContext {
  /// Cooperative cancellation + deadline. Default-constructed (inert)
  /// token: the solve can never be cancelled and polls cost nothing.
  CancelToken cancel;

  /// Engine tuning: block/scheduling-block sides, kernel, thread count.
  NpdpOptions tuning;

  /// Observability sink; null disables collection.
  SolveStats* stats = nullptr;

  /// Optional caller-owned workspace. A backend that solves into a
  /// blocked table uses this instead of allocating, so a serving layer can
  /// reuse one arena across requests of the same shape without clearing
  /// it. Must match the instance/tuning geometry and be padded with the
  /// instance semiring's zero when set.
  BlockedTriangularMatrix<float>* arena = nullptr;

  /// Per-block re-execution on failure (default: disabled). When enabled,
  /// the blocked solve re-runs (from a fresh seed) a memory block whose
  /// relaxation threw, up to retry.max_attempts, instead of aborting.
  RetryPolicy retry;

  bool cancelled() const { return cancel.cancelled(); }
  /// The per-memory-block check (see CancelToken::poll).
  bool poll() const { return cancel.poll(); }

  /// Context with an armed token tripping after `d` from now.
  template <class Rep, class Period>
  static ExecutionContext with_deadline(std::chrono::duration<Rep, Period> d) {
    ExecutionContext ctx;
    ctx.cancel = CancelToken::after(d);
    return ctx;
  }
};

}  // namespace cellnpdp

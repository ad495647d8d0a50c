// The one block scheduler: tier 2 of CellNPDP (§IV-B, Fig. 7-8) and the
// only loop in the library that walks the block triangle.
//
// Three parts:
//   - BlockTracker counts each owned task's FULL input set — every (si,k)
//     and (k,sj) other than the task itself, 2*(sj-si) inputs — and
//     releases the task when the count reaches zero. When every task
//     finishes in one address space this releases exactly what the
//     paper's two-predecessor graph releases, at the same completion
//     (the left and lower neighbours finish last among the inputs); it
//     stays correct when inputs arrive from elsewhere in any order. An
//     owner test picks the tasks a caller computes: all of them, or block
//     column sj mod P (a distributed peer, or a cluster_sim node).
//   - BlockScheduler::run is the worker loop. The calling thread is
//     worker 0, so a one-worker run spawns no thread. Workers release
//     dependents themselves, under the one mutex, and go straight on with
//     the last task their own completion released — the block above in
//     the same column — or else take the oldest task of the ready queue
//     (initially the diagonal, top-left first). With one worker and one
//     owner that reproduces the Fig. 4(b) walk: columns ascending, rows
//     descending within each column. With many workers or owners the
//     queue hands out tasks roughly in anti-diagonal order, which feeds
//     idle workers and other peers the inputs they wait on soonest.
//   - The per-block step is the caller's body (core/solve.hpp binds it to
//     the engine: cancel poll, retry, checksum repair, work counters,
//     on-finished hook). Each worker passes it a Local counter block on
//     its own stack; the scheduler adds them up once at join.
//
// arrive(si, sj) takes tasks finished elsewhere (a distributed peer) from
// any thread; fail(e) aborts the run from any thread. A run that is
// cancelled (the body returns false) or fails stops releasing tasks, lets
// every worker finish the task it is on, and returns false or rethrows.
//
// Observability: one "task" span per task on its worker's lane,
// "enqueue" instants and a "ready_depth" counter track; the sched.*
// metrics (tasks, enqueued, cancelled_tasks, task_failures, task_ns,
// ready_depth) count every run, one-worker runs included.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "taskgraph/dependence_graph.hpp"

namespace cellnpdp {

/// Ready state over the task triangle under full-input counting. Not
/// thread safe; BlockScheduler, cellsim's PPE and cluster_sim's nodes
/// wrap it.
class BlockTracker {
 public:
  explicit BlockTracker(index_t side, std::uint32_t owners = 1,
                        std::uint32_t rank = 0);

  const BlockDependenceGraph& graph() const { return graph_; }

  /// Who computes block column sj when `owners` share the triangle.
  static std::uint32_t owner_of(index_t sj, std::uint32_t owners) {
    return static_cast<std::uint32_t>(sj) % owners;
  }
  bool owns(index_t sj) const { return owner_of(sj, owners_) == rank_; }

  index_t owned_total() const { return owned_total_; }
  index_t finished() const { return finished_; }
  bool all_finished() const { return finished_ == graph_.task_count(); }

  /// Owned tasks ready before anything finished (the owned diagonal),
  /// ascending.
  std::vector<index_t> initial_ready() const;

  /// Marks (si,sj) finished — computed here or received — and calls
  /// ready(id) for every owned task that just became ready: the task to
  /// its right before the one above it. Returns false, changing nothing,
  /// when (si,sj) had already finished.
  template <class F>
  bool finish(index_t si, index_t sj, F&& ready) {
    const auto id = static_cast<std::size_t>(graph_.task_id(si, sj));
    if (done_[id] != 0) return false;
    done_[id] = 1;
    ++finished_;
    for (index_t j = sj + 1; j < graph_.grid_side(); ++j) retire(si, j, ready);
    for (index_t i = si - 1; i >= 0; --i) retire(i, sj, ready);
    return true;
  }

 private:
  template <class F>
  void retire(index_t si, index_t sj, F& ready) {
    if (!owns(sj)) return;
    const index_t id = graph_.task_id(si, sj);
    if (--waiting_[static_cast<std::size_t>(id)] == 0) ready(id);
  }

  BlockDependenceGraph graph_;
  std::uint32_t owners_;
  std::uint32_t rank_;
  std::vector<int> waiting_;  ///< inputs outstanding (owned tasks only)
  std::vector<std::uint8_t> done_;
  index_t owned_total_ = 0;
  index_t finished_ = 0;
};

/// What one scheduler run measured. Busy is time inside task bodies; idle
/// is wall * workers - busy.
struct ScheduleStats {
  double wall_seconds = 0;
  /// Time during which no owned task was ready or running while the run
  /// was not over: waiting on tasks finished elsewhere. Zero when one
  /// owner computes everything.
  double stall_seconds = 0;
  std::vector<double> worker_busy;    ///< seconds per worker
  std::vector<index_t> worker_tasks;  ///< tasks per worker
  index_t tasks = 0;                  ///< owned tasks run to completion

  double busy_total() const {
    double s = 0;
    for (double b : worker_busy) s += b;
    return s;
  }
  /// Mean worker occupancy in [0,1].
  double utilization() const {
    if (wall_seconds <= 0 || worker_busy.empty()) return 0;
    return busy_total() / (wall_seconds * double(worker_busy.size()));
  }
};

/// Raised (through run()) when no owned task was ready or running and
/// nothing arrived for the stall timeout.
struct ScheduleStalled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class BlockScheduler {
 public:
  struct Options {
    index_t side = 1;          ///< task grid side
    std::size_t workers = 1;   ///< worker 0 is the calling thread
    std::uint32_t owners = 1;  ///< the triangle is shared column-cyclically
    std::uint32_t rank = 0;    ///< which owner's tasks this run computes
    /// With owners > 1: abort once stalled this long (0 = wait forever).
    std::chrono::milliseconds stall_timeout{0};
  };

  explicit BlockScheduler(const Options& opts);

  BlockScheduler(const BlockScheduler&) = delete;
  BlockScheduler& operator=(const BlockScheduler&) = delete;

  const BlockTracker& tracker() const { return tracker_; }

  /// Task (si,sj), not owned here, finished elsewhere; its bytes must be
  /// in place before the call. Thread safe, also before run(). Returns
  /// false for a duplicate.
  bool arrive(index_t si, index_t sj);

  /// Aborts the run: no further task starts and run() rethrows `e` once
  /// every worker has returned (the first failure wins). Thread safe.
  void fail(std::exception_ptr e);

  /// Runs every owned task once, each after its full input set finished:
  /// body(si, sj, local) returns true when the task finished, false when
  /// it stopped early (cancelled) — which stops the run. Returns true
  /// when every task of the triangle finished; rethrows the first body
  /// exception. Adds each worker's Local into *total (when given) and
  /// fills *stats (when given). Call once per scheduler.
  template <class Local, class Body>
  bool run(Body&& body, Local* total = nullptr,
           ScheduleStats* stats = nullptr) {
    begin(stats);
    auto work = [&](std::size_t w) {
      Local local{};
      std::int64_t busy = 0;
      index_t ran = 0;
      Task t;
      bool have = next(&t);
      while (have) {
        const std::int64_t t0 = now_ns();
        bool ok = false;
        std::exception_ptr err;
        {
          CELLNPDP_TRACE_SPAN("sched", "task", t.si, t.sj);
          try {
            ok = body(t.si, t.sj, local);
          } catch (...) {
            err = std::current_exception();
          }
        }
        const std::int64_t dt = now_ns() - t0;
        busy += dt;
        ran += ok;
        have = done(&t, ok, err, dt) || next(&t);
      }
      std::lock_guard lk(mu_);
      if (total != nullptr) *total += local;
      if (stats != nullptr) {
        stats->worker_busy[w] = double(busy) * 1e-9;
        stats->worker_tasks[w] = ran;
      }
    };
    auto guarded = [&](std::size_t w) {
      try {
        if (w > 0)  // worker 0 is the caller's thread and keeps its name
          obs::Tracer::instance().name_this_thread("worker " +
                                                   std::to_string(w));
        work(w);
      } catch (...) {
        fail(std::current_exception());
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers_ - 1);
    try {
      for (std::size_t w = 1; w < workers_; ++w)
        threads.emplace_back(guarded, w);
    } catch (...) {
      fail(std::current_exception());
    }
    guarded(0);
    for (std::thread& th : threads) th.join();
    return end(stats);
  }

 private:
  struct Task {
    index_t si = 0, sj = 0;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void begin(ScheduleStats* stats);
  /// Pops the oldest ready task, waiting while none is; false once the
  /// run is over for this worker.
  bool next(Task* t);
  /// Retires the task *t the calling worker ran. When its completion
  /// released a task, hands the last one released back in *t and returns
  /// true, so the worker continues up the column without a queue trip.
  bool done(Task* t, bool ok, std::exception_ptr err, std::int64_t ns);
  /// Makes ready task `id` the caller's running task *t. Caller holds mu_.
  void take(index_t id, Task* t);
  bool end(ScheduleStats* stats);

  /// Finishes (si,sj), pushes every task that releases, and wakes a
  /// worker for each beyond the `keep` the caller goes on to take itself;
  /// false for a duplicate. Caller holds mu_.
  bool release(index_t si, index_t sj, std::size_t keep);
  std::size_t queued() const { return ready_.size() - head_; }
  bool over() const {
    return failure_ != nullptr || stopped_ || tracker_.all_finished();
  }
  /// Opens or closes the current stall interval. Caller holds mu_.
  void note_stall();

  const std::size_t workers_;
  const std::chrono::milliseconds stall_timeout_;

  std::mutex mu_;
  std::condition_variable cv_;
  BlockTracker tracker_;        // guarded by mu_
  /// Ready queue: ready_[head_..] in release order; guarded by mu_.
  std::vector<index_t> ready_;
  std::size_t head_ = 0;
  index_t running_ = 0;
  index_t ran_ = 0;       ///< owned tasks finished by this run's workers
  index_t enqueued_ = 0;  ///< owned tasks made ready during the run
  bool stopped_ = false;
  std::exception_ptr failure_;
  std::int64_t start_ns_ = 0;
  std::int64_t stall_since_ = -1;  ///< start of the open stall, or -1
  std::int64_t stall_ns_ = 0;
};

}  // namespace cellnpdp

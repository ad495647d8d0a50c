#include "taskgraph/block_scheduler.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace cellnpdp {

namespace {

struct SchedMetrics {
  obs::Counter& tasks = obs::metrics().counter("sched.tasks");
  obs::Counter& enqueued = obs::metrics().counter("sched.enqueued");
  obs::Counter& abandoned = obs::metrics().counter("sched.cancelled_tasks");
  obs::Counter& failures = obs::metrics().counter("sched.task_failures");
  obs::Histogram& task_ns = obs::metrics().histogram("sched.task_ns");
  obs::Histogram& ready_depth = obs::metrics().histogram("sched.ready_depth");
  static SchedMetrics& get() {
    static SchedMetrics m;
    return m;
  }
};

}  // namespace

BlockTracker::BlockTracker(index_t side, std::uint32_t owners,
                           std::uint32_t rank)
    : graph_(side),
      owners_(std::max<std::uint32_t>(1, owners)),
      rank_(rank),
      waiting_(static_cast<std::size_t>(graph_.task_count()), 0),
      done_(static_cast<std::size_t>(graph_.task_count()), 0) {
  for (index_t id = 0; id < graph_.task_count(); ++id) {
    const auto [si, sj] = graph_.coords(id);
    if (!owns(sj)) continue;
    ++owned_total_;
    waiting_[static_cast<std::size_t>(id)] = 2 * static_cast<int>(sj - si);
  }
}

std::vector<index_t> BlockTracker::initial_ready() const {
  std::vector<index_t> out;
  for (index_t s = 0; s < graph_.grid_side(); ++s)
    if (owns(s)) out.push_back(graph_.task_id(s, s));
  return out;
}

BlockScheduler::BlockScheduler(const Options& opts)
    : workers_(std::max<std::size_t>(1, opts.workers)),
      stall_timeout_(opts.stall_timeout),
      tracker_(opts.side, opts.owners, opts.rank) {
  // Every owned task is queued once, so this capacity is never exceeded:
  // the queue allocates nothing per task.
  ready_.reserve(static_cast<std::size_t>(tracker_.owned_total()));
  const std::vector<index_t> diag = tracker_.initial_ready();
  ready_.assign(diag.begin(), diag.end());  // (0,0) first
  enqueued_ = static_cast<index_t>(ready_.size());
}

bool BlockScheduler::arrive(index_t si, index_t sj) {
  std::lock_guard lk(mu_);
  if (stall_since_ >= 0) {
    // An arrival is progress: restart the no-progress window.
    const std::int64_t now = now_ns();
    stall_ns_ += now - stall_since_;
    stall_since_ = now;
  }
  const bool fresh = release(si, sj, /*keep=*/0);
  note_stall();
  return fresh;
}

void BlockScheduler::fail(std::exception_ptr e) {
  std::lock_guard lk(mu_);
  if (failure_ == nullptr) failure_ = std::move(e);
  cv_.notify_all();
}

void BlockScheduler::begin(ScheduleStats* stats) {
  std::lock_guard lk(mu_);
  start_ns_ = now_ns();
  if (stats != nullptr) {
    stats->worker_busy.assign(workers_, 0.0);
    stats->worker_tasks.assign(workers_, 0);
    stats->tasks = 0;
  }
  note_stall();
}

bool BlockScheduler::next(Task* t) {
  std::unique_lock lk(mu_);
  const auto can_go = [this] { return over() || queued() > 0; };
  if (stall_timeout_.count() <= 0) {
    cv_.wait(lk, can_go);
  } else {
    while (!cv_.wait_for(lk, stall_timeout_, can_go)) {
      if (stall_since_ < 0 ||
          now_ns() - stall_since_ <=
              std::chrono::nanoseconds(stall_timeout_).count())
        continue;
      failure_ = std::make_exception_ptr(ScheduleStalled(
          std::to_string(tracker_.finished()) + "/" +
          std::to_string(tracker_.graph().task_count()) +
          " blocks finished after " + std::to_string(stall_timeout_.count()) +
          " ms without progress"));
      cv_.notify_all();
    }
  }
  if (over()) return false;
  take(ready_[head_++], t);
  return true;
}

void BlockScheduler::take(index_t id, Task* t) {
  const auto [si, sj] = tracker_.graph().coords(id);
  t->si = si;
  t->sj = sj;
  ++running_;
  CELLNPDP_TRACE_COUNTER("sched", "ready_depth",
                         static_cast<std::int64_t>(queued()));
}

bool BlockScheduler::done(Task* t, bool ok, std::exception_ptr err,
                          std::int64_t ns) {
  SchedMetrics& sm = SchedMetrics::get();
  std::lock_guard lk(mu_);
  --running_;
  if (err != nullptr) {
    // The task's tracker entry stays open, so the run winds down as
    // abandoned rather than complete.
    sm.failures.add();
    if (failure_ == nullptr) failure_ = std::move(err);
    cv_.notify_all();
    return false;
  }
  if (!ok) {
    stopped_ = true;
    cv_.notify_all();
    return false;
  }
  ++ran_;
  sm.task_ns.observe(ns);
  const std::size_t before = ready_.size();
  release(t->si, t->sj, /*keep=*/1);
  sm.ready_depth.observe(static_cast<std::int64_t>(queued()));
  const bool more = ready_.size() > before && !over();
  if (more) {
    // Continue with the last task this completion released: the block
    // above in the same column when there is one.
    const index_t id = ready_.back();
    ready_.pop_back();
    take(id, t);
  }
  note_stall();
  return more;
}

bool BlockScheduler::release(index_t si, index_t sj, std::size_t keep) {
  std::size_t released = 0;
  const bool fresh = tracker_.finish(si, sj, [&](index_t id) {
    ready_.push_back(id);
    ++released;
    CELLNPDP_TRACE_INSTANT("sched", "enqueue", id);
  });
  if (released > 0) {
    enqueued_ += static_cast<index_t>(released);
    CELLNPDP_TRACE_COUNTER("sched", "ready_depth",
                           static_cast<std::int64_t>(queued()));
  }
  if (tracker_.all_finished()) {
    cv_.notify_all();
  } else {
    for (std::size_t i = keep; i < released; ++i) cv_.notify_one();
  }
  return fresh;
}

void BlockScheduler::note_stall() {
  if (start_ns_ == 0) return;  // the run has not begun
  const bool stalled = queued() == 0 && running_ == 0 && !over();
  if (stalled == (stall_since_ >= 0)) return;
  const std::int64_t now = now_ns();
  if (stalled) {
    stall_since_ = now;
  } else {
    stall_ns_ += now - stall_since_;
    stall_since_ = -1;
  }
}

bool BlockScheduler::end(ScheduleStats* stats) {
  SchedMetrics& sm = SchedMetrics::get();
  std::lock_guard lk(mu_);
  if (stall_since_ >= 0) {
    stall_ns_ += now_ns() - stall_since_;
    stall_since_ = -1;
  }
  const bool completed = failure_ == nullptr && tracker_.all_finished();
  sm.tasks.add(ran_);
  sm.enqueued.add(enqueued_);
  if (ran_ < tracker_.owned_total())
    sm.abandoned.add(tracker_.owned_total() - ran_);
  if (stats != nullptr) {
    stats->wall_seconds = double(now_ns() - start_ns_) * 1e-9;
    stats->stall_seconds = double(stall_ns_) * 1e-9;
    stats->tasks = ran_;
  }
  if (failure_ != nullptr) std::rethrow_exception(failure_);
  return completed;
}

}  // namespace cellnpdp

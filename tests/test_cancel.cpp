// Cooperative cancellation and the solver-backend registry.
//
// The contract under test (docs/architecture.md): every backend resolves by
// name and produces bit-identical results to the concrete entry point it
// wraps; a cancelled solve returns SolveStatus::Cancelled with a partial
// but never torn table (the same arena re-solves to the exact answer); the
// serve layer turns request deadlines into mid-solve aborts that free the
// worker for the next request.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "apps/matrix_chain/matrix_chain.hpp"
#include "apps/optimal_bst/optimal_bst.hpp"
#include "apps/polygon/triangulation.hpp"
#include "apps/zuker/fold.hpp"
#include "backend/solver_backend.hpp"
#include "baselines/recursive_npdp.hpp"
#include "baselines/tan_npdp.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "core/solve.hpp"
#include "layout/convert.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "taskgraph/block_scheduler.hpp"

namespace cellnpdp {
namespace {

NpdpInstance<float> pure_instance(index_t n, std::uint64_t seed = 11) {
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [seed](index_t i, index_t j) {
    return random_init_value<float>(seed, i, j);
  };
  return inst;
}

/// An instance whose relaxations sleep, so a test can cancel mid-solve
/// deterministically without huge tables. The kterm runs on scalar block
/// products and is called O(n^3/6) times; ~1us each keeps the full solve
/// in the tens of milliseconds.
NpdpInstance<float> slow_instance(index_t n) {
  NpdpInstance<float> inst = pure_instance(n);
  inst.kterm = [](index_t, index_t, index_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(1));
    return 0.0f;
  };
  return inst;
}

// --- CancelToken ---------------------------------------------------------

TEST(CancelToken, InertTokenNeverCancels) {
  CancelToken t;
  EXPECT_FALSE(t.armed_token());
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.poll());
  EXPECT_FALSE(t.poll_deadline_now());
  t.request_cancel();  // no-op
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, FirstReasonWins) {
  CancelToken t = CancelToken::armed();
  EXPECT_FALSE(t.cancelled());
  t.request_cancel(CancelReason::Shed);
  t.request_cancel(CancelReason::Shutdown);
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::Shed);
}

TEST(CancelToken, CopiesShareState) {
  CancelToken a = CancelToken::armed();
  CancelToken b = a;
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
}

TEST(CancelToken, DeadlineTripsPollDeadlineNow) {
  CancelToken t = CancelToken::after(std::chrono::milliseconds(-1));
  EXPECT_TRUE(t.poll_deadline_now());
  EXPECT_EQ(t.reason(), CancelReason::Deadline);
}

// --- backend registry ----------------------------------------------------

TEST(BackendRegistry, ResolvesEveryBuiltin) {
  auto& reg = backend::BackendRegistry::instance();
  for (const char* name : {"reference", "blocked-serial", "blocked-parallel",
                           "tan", "recursive", "cellsim"}) {
    const backend::SolverBackend* b = reg.find(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_STREQ(b->name(), name);
  }
  EXPECT_TRUE(reg.find("blocked-parallel")->caps().parallel);
  EXPECT_TRUE(reg.find("cellsim")->caps().timing_model);
  EXPECT_TRUE(reg.find("blocked-serial")->caps().arena);
  EXPECT_FALSE(reg.find("reference")->caps().arena);
}

TEST(BackendRegistry, UnknownNameThrowsWithKnownList) {
  try {
    backend::require_backend("no-such-backend");
    FAIL() << "expected UnknownBackendError";
  } catch (const backend::UnknownBackendError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-backend"), std::string::npos);
    EXPECT_NE(msg.find("blocked-serial"), std::string::npos);
  }
}

TEST(BackendRegistry, DuplicateNameRejected) {
  struct Dup final : backend::SolverBackend {
    const char* name() const override { return "reference"; }
    backend::Capabilities caps() const override { return {}; }
    backend::BackendResult solve(const NpdpInstance<float>&,
                                 const ExecutionContext&) const override {
      return {};
    }
  };
  EXPECT_THROW(
      backend::BackendRegistry::instance().add(std::make_unique<Dup>()),
      std::invalid_argument);
}

TEST(BackendRegistry, AllBackendsBitIdenticalOnPureInstances) {
  const auto inst = pure_instance(150, 23);
  const TriangularMatrix<float> expect = solve_reference(inst);
  const float expect_top = expect.at(0, inst.n - 1);
  for (const backend::SolverBackend* b :
       backend::BackendRegistry::instance().list()) {
    ExecutionContext ctx;
    ctx.tuning.block_side = 32;
    ctx.tuning.threads = b->caps().parallel ? 3 : 1;
    const backend::BackendResult r = b->solve(inst, ctx);
    ASSERT_EQ(r.status, SolveStatus::Ok) << b->name();
    EXPECT_EQ(float(r.value), expect_top) << b->name();
    if (r.tri != nullptr) {
      EXPECT_EQ(max_abs_diff(expect, *r.tri), 0.0) << b->name();
    }
    if (r.blocked != nullptr) {
      EXPECT_EQ(max_abs_diff(expect, *r.blocked), 0.0) << b->name();
    }
  }
}

TEST(BackendRegistry, BlockedBackendsSolveIntoProvidedArena) {
  const auto inst = pure_instance(100, 5);
  const TriangularMatrix<float> expect = solve_reference(inst);
  for (const char* name : {"blocked-serial", "blocked-parallel"}) {
    BlockedTriangularMatrix<float> arena(inst.n, 32);
    ExecutionContext ctx;
    ctx.tuning.block_side = 32;
    ctx.arena = &arena;
    const auto r = backend::require_backend(name).solve(inst, ctx);
    ASSERT_EQ(r.status, SolveStatus::Ok);
    EXPECT_EQ(r.blocked, nullptr);  // the arena holds the table
    EXPECT_EQ(r.tri, nullptr);
    EXPECT_EQ(max_abs_diff(expect, arena), 0.0) << name;
    EXPECT_EQ(float(r.value), expect.at(0, inst.n - 1)) << name;
  }
}

TEST(BackendRegistry, PureOnlyBaselinesRejectWeightedInstances) {
  auto inst = pure_instance(40);
  inst.weight = [](index_t, index_t) { return 0.5f; };
  ExecutionContext ctx;
  EXPECT_THROW(backend::require_backend("tan").solve(inst, ctx),
               std::invalid_argument);
  EXPECT_THROW(backend::require_backend("recursive").solve(inst, ctx),
               std::invalid_argument);
}

TEST(BackendRegistry, CellsimReportsSimulatedSeconds) {
  const auto inst = pure_instance(192);
  ExecutionContext ctx;
  ctx.tuning.block_side = 64;
  const auto r = backend::require_backend("cellsim").solve(inst, ctx);
  ASSERT_EQ(r.status, SolveStatus::Ok);
  EXPECT_GT(r.sim_seconds, 0.0);
}

// --- scheduler cancellation ---------------------------------------------

// The scheduler stops at the first task whose step reports a cancel (the
// solve's step polls the token per block): nothing else starts, every
// worker returns, and the run reports itself incomplete.
TEST(ExecutorCancel, PreCancelledRunExecutesNothing) {
  CancelToken cancel = CancelToken::armed();
  cancel.request_cancel();
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    BlockScheduler::Options o;
    o.side = 6;
    o.workers = workers;
    BlockScheduler sched(o);
    int ran = 0;
    const bool completed = sched.run(
        [&](index_t, index_t, int& n) {
          if (cancel.poll()) return false;
          ++n;
          return true;
        },
        &ran);
    EXPECT_FALSE(completed) << workers << " workers";
    EXPECT_EQ(ran, 0) << workers << " workers";
  }
}

TEST(ExecutorCancel, TripMidRunStopsReleasingTasks) {
  BlockScheduler::Options o;
  o.side = 8;  // 36 tasks
  o.workers = 2;
  BlockScheduler sched(o);
  CancelToken cancel = CancelToken::armed();
  std::atomic<int> started{0};
  const std::int64_t abandoned_before =
      obs::metrics().counter("sched.cancelled_tasks").value();
  ScheduleStats stats;
  int ran = 0;
  const bool completed = sched.run(
      [&](index_t, index_t, int& n) {
        if (cancel.poll()) return false;
        if (++started >= 3) cancel.request_cancel();
        ++n;
        return true;
      },
      &ran, &stats);
  EXPECT_FALSE(completed);
  EXPECT_LT(ran, 36);
  EXPECT_EQ(stats.tasks, index_t(ran));
  EXPECT_GT(obs::metrics().counter("sched.cancelled_tasks").value(),
            abandoned_before);
}

// --- solver cancellation / arena reuse ----------------------------------

TEST(SolveCancel, MidSolveCancelThenArenaReuseIsBitIdentical) {
  const auto slow = slow_instance(72);
  const auto inst = pure_instance(72);  // same shape, fast
  BlockedTriangularMatrix<float> mat(slow.n, 16);

  ExecutionContext ctx;
  ctx.tuning.block_side = 16;
  ctx.tuning.threads = 4;
  ctx.cancel = CancelToken::armed();
  std::thread cancel_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    ctx.cancel.request_cancel();
  });
  const SolveStatus st = solve_blocked_into(mat, slow, ctx);
  cancel_thread.join();
  ASSERT_EQ(st, SolveStatus::Cancelled);

  // The arena of the abandoned solve must be reusable in place: reset and
  // re-solve, and the table is bit-identical to the reference answer — no
  // block was left half-relaxed in a way reset() would not clear.
  mat.reset();
  ExecutionContext fresh;
  fresh.tuning.block_side = 16;
  fresh.tuning.threads = 4;
  ASSERT_EQ(solve_blocked_into(mat, inst, fresh), SolveStatus::Ok);
  EXPECT_EQ(max_abs_diff(solve_reference(inst), mat), 0.0);
}

TEST(SolveCancel, SerialSolvePreCancelledLeavesTableUntouched) {
  // Blocks are seeded by the step that relaxes them, so a block the solve
  // never reached keeps what the caller's table held.
  const auto inst = pure_instance(64);
  BlockedTriangularMatrix<float> mat(inst.n, 16);
  ExecutionContext ctx;
  ctx.tuning.block_side = 16;
  ctx.cancel = CancelToken::armed();
  ctx.cancel.request_cancel(CancelReason::Shutdown);
  SolveStats ss;
  ctx.stats = &ss;
  EXPECT_EQ(solve_blocked_into(mat, inst, ctx),
            SolveStatus::Cancelled);
  EXPECT_EQ(ss.tasks, 0);
  for (index_t c = 0; c < mat.total_cells(); ++c)
    ASSERT_EQ(mat.data()[c], mat.pad()) << "cell " << c;
}

TEST(SolveCancel, BaselinesObserveExplicitCancel) {
  const auto inst = pure_instance(64);
  CancelToken tripped = CancelToken::armed();
  tripped.request_cancel();

  TriangularMatrix<float> tan_table(inst.n);
  tan_table.fill(inst.init);
  EXPECT_FALSE(solve_tan_npdp(tan_table, TanOptions{}, tripped));

  bool completed = true;
  solve_recursive(inst, {}, tripped, &completed);
  EXPECT_FALSE(completed);

  completed = true;
  solve_reference(inst, tripped, &completed);
  EXPECT_FALSE(completed);

  completed = false;
  const auto full = solve_reference(inst, CancelToken::armed(), &completed);
  EXPECT_TRUE(completed);
  EXPECT_EQ(max_abs_diff(full, solve_reference(inst)), 0.0);
}

// --- application-level cancellation --------------------------------------

TEST(AppsCancel, MatrixChainContextFormMatchesLegacyAndCancels) {
  std::vector<float> p;
  for (int i = 0; i <= 40; ++i) p.push_back(float(2 + (i * 7) % 9));

  ExecutionContext tripped;
  tripped.tuning.block_side = 16;
  tripped.cancel = CancelToken::armed();
  tripped.cancel.request_cancel();
  MatrixChainResult<float> out;
  out.cost = -1.0f;
  ASSERT_EQ(solve_matrix_chain(p, tripped, &out), SolveStatus::Cancelled);
  EXPECT_EQ(out.cost, -1.0f);  // untouched on cancel

  ExecutionContext ctx;
  ctx.tuning.block_side = 16;
  ASSERT_EQ(solve_matrix_chain(p, ctx, &out), SolveStatus::Ok);
  const auto ref = solve_matrix_chain_reference(p);
  EXPECT_EQ(out.cost, ref.cost);
  EXPECT_EQ(out.parenthesization, ref.parenthesization);
}

TEST(AppsCancel, OptimalBstContextFormMatchesLegacyAndCancels) {
  std::vector<double> prob{0, 0.15, 0.10, 0.05, 0.10, 0.20};
  std::vector<double> gap{0.05, 0.10, 0.05, 0.05, 0.05, 0.10};
  const auto d = make_bst_data(prob, gap);

  double cost = -1.0;
  ExecutionContext tripped;
  tripped.cancel = CancelToken::armed();
  tripped.cancel.request_cancel();
  ASSERT_EQ(solve_optimal_bst(d, tripped, &cost), SolveStatus::Cancelled);
  EXPECT_EQ(cost, -1.0);

  ExecutionContext ctx;
  ASSERT_EQ(solve_optimal_bst(d, ctx, &cost), SolveStatus::Ok);
  EXPECT_NEAR(cost, solve_optimal_bst_reference(d), 1e-9);
}

TEST(AppsCancel, TriangulateContextFormMatchesLegacyAndCancels) {
  const auto pts = polygon::random_convex_polygon(48, 3);

  polygon::TriangulationResult out;
  ExecutionContext tripped;
  tripped.tuning.block_side = 16;
  tripped.cancel = CancelToken::armed();
  tripped.cancel.request_cancel();
  ASSERT_EQ(polygon::triangulate(pts, tripped, &out),
            SolveStatus::Cancelled);
  EXPECT_TRUE(out.triangles.empty());

  ExecutionContext ctx;
  ctx.tuning.block_side = 16;
  ASSERT_EQ(polygon::triangulate(pts, ctx, &out), SolveStatus::Ok);
  EXPECT_NEAR(out.cost, polygon::triangulate_reference(pts), 1e-9);
  EXPECT_EQ(out.triangles.size(), pts.size() - 2);
}

TEST(AppsCancel, ZukerFoldObservesToken) {
  const auto seq = zuker::random_sequence(160, 7);

  zuker::FoldOptions cancelled_opts;
  cancelled_opts.cancel = CancelToken::armed();
  cancelled_opts.cancel.request_cancel();
  zuker::ZukerFolder aborted(zuker::EnergyModel{}, cancelled_opts);
  EXPECT_TRUE(aborted.fold(seq).cancelled);

  zuker::FoldOptions opts;
  opts.cancel = CancelToken::armed();  // armed but never tripped
  zuker::ZukerFolder folder(zuker::EnergyModel{}, opts);
  const auto got = folder.fold(seq);
  EXPECT_FALSE(got.cancelled);
  const auto expect = zuker::ZukerFolder().fold(seq);
  EXPECT_EQ(got.mfe, expect.mfe);
  EXPECT_EQ(got.structure, expect.structure);
}

// --- serve-layer cancellation -------------------------------------------

serve::Request solve_request(index_t n, std::uint64_t id,
                             std::uint64_t seed = 1) {
  serve::Request req;
  req.id = id;
  serve::SolveSpec s;
  s.n = n;
  s.seed = seed;
  s.block_side = 32;
  req.payload = s;
  return req;
}

TEST(ServeCancel, DeadlineExpiryDuringExecutionFreesTheWorker) {
  serve::ServiceOptions so;
  so.workers = 1;
  so.cache_capacity = 0;
  serve::SolveService service(so);

  // Big enough that the solve takes far longer than the deadline, which in
  // turn is far longer than dispatch latency: the deadline passes while
  // the worker is mid-solve, and the armed token aborts it cooperatively.
  // The one-thread n = 2560, block-32 solve takes 200-280 ms on a 4-core
  // Xeon VM, at least 4x the deadline; the deadline is 25x the
  // dispatcher's 2 ms batch-flush tick.
  serve::Request big = solve_request(2560, 1);
  big.deadline = serve::Clock::now() + std::chrono::milliseconds(50);
  auto fut = service.submit(std::move(big));
  const serve::Response r = fut.get();
  EXPECT_EQ(r.status, serve::Status::Cancelled);
  EXPECT_EQ(r.detail, "deadline");
  EXPECT_GT(r.solve_ns, 0);  // aborted during execution, not in queue

  // The worker the abort freed must serve the next request normally.
  const serve::Response next =
      service.submit(solve_request(128, 2)).get();
  EXPECT_EQ(next.status, serve::Status::Ok);
  service.stop();
  const auto st = service.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(ServeCancel, QueueExpiryStampsTimeInQueueAndCounts) {
  const std::int64_t expired_before =
      obs::metrics().counter("serve.expired").value();
  serve::ServiceOptions so;
  so.workers = 1;
  serve::SolveService service(so);
  serve::Request req = solve_request(64, 9);
  req.deadline = serve::Clock::now() - std::chrono::milliseconds(1);
  const serve::Response r = service.submit(std::move(req)).get();
  EXPECT_EQ(r.status, serve::Status::Expired);
  EXPECT_GE(r.queue_ns, 0);
  EXPECT_EQ(r.solve_ns, 0);  // never reached a worker
  service.stop();
  EXPECT_EQ(service.stats().expired, 1u);
  EXPECT_GT(obs::metrics().counter("serve.expired").value(), expired_before);
}

TEST(ServeCancel, StopWithoutDrainAbortsInFlightSolves) {
  serve::ServiceOptions so;
  so.workers = 1;
  so.cache_capacity = 0;
  serve::SolveService service(so);
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 3; ++i)
    futs.push_back(service.submit(solve_request(2560, 100 + i, 50 + i)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.stop(/*drain=*/false);
  for (auto& f : futs) {
    const serve::Response r = f.get();
    EXPECT_EQ(r.status, serve::Status::Cancelled) << "id " << r.id;
  }
  EXPECT_EQ(service.stats().cancelled, 3u);
}

TEST(ServeCancel, PerRequestBackendSelectionMatchesDefault) {
  serve::ServiceOptions so;
  so.workers = 2;
  so.cache_capacity = 0;
  serve::SolveService service(so);
  serve::Request by_name = solve_request(150, 1, 23);
  std::get<serve::SolveSpec>(by_name.payload).backend = "recursive";
  const serve::Response a = service.submit(std::move(by_name)).get();
  const serve::Response b = service.submit(solve_request(150, 2, 23)).get();
  EXPECT_EQ(a.status, serve::Status::Ok);
  EXPECT_EQ(b.status, serve::Status::Ok);
  EXPECT_EQ(a.value, b.value);  // bit-identical across backends

  serve::Request bad = solve_request(64, 3);
  std::get<serve::SolveSpec>(bad.payload).backend = "bogus";
  const serve::Response c = service.submit(std::move(bad)).get();
  EXPECT_EQ(c.status, serve::Status::Error);
  EXPECT_NE(c.detail.find("unknown backend"), std::string::npos);
  service.stop();
}

TEST(ServeCancel, CacheCountersMirroredIntoObsRegistry) {
  auto& m = obs::metrics();
  const std::int64_t hits0 = m.counter("serve.cache.hits").value();
  const std::int64_t miss0 = m.counter("serve.cache.misses").value();
  serve::SolveService service{serve::ServiceOptions{}};
  const serve::Response first = service.submit(solve_request(96, 1)).get();
  const serve::Response second = service.submit(solve_request(96, 2)).get();
  EXPECT_EQ(first.status, serve::Status::Ok);
  EXPECT_EQ(second.status, serve::Status::OkCached);
  service.stop();
  EXPECT_GT(m.counter("serve.cache.hits").value(), hits0);
  EXPECT_GT(m.counter("serve.cache.misses").value(), miss0);
}

}  // namespace
}  // namespace cellnpdp

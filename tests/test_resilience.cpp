// The fault-injection harness and the self-healing pipeline built on it.
//
// Contracts under test (docs/resilience.md): a seeded FaultPlan fires
// deterministically and logs every firing for replay; per-block retry and
// checksum repair make the blocked solve bit-identical to a clean run
// under injected throws and corruption, on one worker and on many, and it
// rethrows when retry is off instead of hanging; the thread pool
// aggregates every job exception and self-heals worker deaths; the
// circuit breaker walks closed -> open -> half-open -> closed; the serve
// layer retries, degrades onto a fallback backend, sheds with RetryAfter,
// and hedges stragglers without ever double-answering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "backend/solver_backend.hpp"
#include "common/fault_hook.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/solve.hpp"
#include "obs/metrics.hpp"
#include "layout/checksum.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/hedge.hpp"
#include "serve/service.hpp"

namespace cellnpdp {
namespace {

using namespace std::chrono;
using resilience::BreakerPolicy;
using resilience::BreakerState;
using resilience::CircuitBreaker;
using resilience::FaultInjectionScope;
using resilience::FaultInjector;
using resilience::FaultPlan;

NpdpInstance<float> pure_instance(index_t n, std::uint64_t seed = 11) {
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [seed](index_t i, index_t j) {
    return random_init_value<float>(seed, i, j);
  };
  return inst;
}

/// General mode (weight set): finalize_cell is NOT idempotent here, so
/// recovery must re-seed before re-running — the regression this guards.
NpdpInstance<float> general_instance(index_t n, std::uint64_t seed = 13) {
  NpdpInstance<float> inst = pure_instance(n, seed);
  inst.weight = [](index_t i, index_t j) {
    return 0.25f * float((i + j) % 7);
  };
  return inst;
}

/// The blocked solve as the resilient backend runs it: checksums on and a
/// budget of 4 attempts per block.
SolveStatus solve_healing(BlockedTriangularMatrix<float>& mat,
                          const NpdpInstance<float>& inst,
                          const ExecutionContext& ctx,
                          SolveStats* ss = nullptr) {
  ExecutionContext healing = ctx;
  healing.retry.max_attempts = 4;
  healing.stats = ss;
  return solve_blocked_into(mat, inst, healing, /*checksums=*/true);
}

bool tables_identical(const BlockedTriangularMatrix<float>& a,
                      const BlockedTriangularMatrix<float>& b) {
  return a.size() == b.size() && a.block_side() == b.block_side() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.total_cells()) *
                         sizeof(float)) == 0;
}

// --- FaultPlan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesJsonAndRejectsMalformedPlans) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(resilience::fault_plan_from_json_text(
      R"({"seed": 42, "faults": [
            {"site": "task-throw", "rate": 0.01},
            {"site": "block-corrupt", "rate": 0.001, "max_fires": 4},
            {"site": "task-stall", "rate": 1.0, "max_fires": 1,
             "stall_ms": 300}]})",
      &plan, &err))
      << err;
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.rules.size(), 3u);
  const resilience::FaultRule* corrupt =
      plan.rule_for(FaultSite::BlockCorrupt);
  ASSERT_NE(corrupt, nullptr);
  EXPECT_DOUBLE_EQ(corrupt->rate, 0.001);
  EXPECT_EQ(corrupt->max_fires, 4);
  ASSERT_NE(plan.rule_for(FaultSite::TaskStall), nullptr);
  EXPECT_EQ(plan.rule_for(FaultSite::TaskStall)->stall_ms, 300);
  EXPECT_EQ(plan.rule_for(FaultSite::WorkerDeath), nullptr);

  for (const char* bad : {
           "not json",
           R"([1, 2])",
           R"({"faults": [{"rate": 0.5}]})",
           R"({"faults": [{"site": "martian-ray", "rate": 0.5}]})",
           R"({"faults": [{"site": "task-throw", "rate": 1.5}]})",
           R"({"faults": [{"site": "task-throw"}, {"site": "task-throw"}]})",
       }) {
    err.clear();
    EXPECT_FALSE(resilience::fault_plan_from_json_text(bad, &plan, &err))
        << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(FaultPlan, SiteNamesRoundTrip) {
  for (int s = 0; s < kFaultSiteCount; ++s) {
    const auto site = static_cast<FaultSite>(s);
    FaultSite back = FaultSite::TaskThrow;
    ASSERT_TRUE(resilience::fault_site_from_name(fault_site_name(site), &back));
    EXPECT_EQ(back, site);
  }
  FaultSite out;
  EXPECT_FALSE(resilience::fault_site_from_name("gamma-burst", &out));
}

// --- deterministic injection ---------------------------------------------

TEST(FaultInjector, SamePlanSameCallSequenceFiresIdentically) {
  const FaultPlan plan = FaultPlan::single(FaultSite::TaskThrow, 0.2,
                                           /*max_fires=*/-1, /*seed=*/7);
  FaultInjector a(plan), b(plan);
  for (std::int64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(a.fire(FaultSite::TaskThrow, k, k + 1),
              b.fire(FaultSite::TaskThrow, k, k + 1));
  }
  EXPECT_GT(a.fired_count(FaultSite::TaskThrow), 0);
  EXPECT_LT(a.fired_count(FaultSite::TaskThrow), 500);
  const auto la = a.fired_log(), lb = b.fired_log();
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].occurrence, lb[i].occurrence);
    EXPECT_EQ(la[i].k1, lb[i].k1);
  }
  std::ostringstream ja, jb;
  a.write_log(ja);
  b.write_log(jb);
  EXPECT_EQ(ja.str(), jb.str());  // byte-identical replay artifact

  // A different seed gives a different firing pattern.
  FaultInjector c(FaultPlan::single(FaultSite::TaskThrow, 0.2, -1, 8));
  std::vector<std::int64_t> occ_a, occ_c;
  for (const auto& f : la) occ_a.push_back(f.occurrence);
  for (std::int64_t k = 0; k < 500; ++k)
    if (c.fire(FaultSite::TaskThrow, k, k + 1)) occ_c.push_back(k);
  EXPECT_NE(occ_a, occ_c);
}

TEST(FaultInjector, MaxFiresCapsFirings) {
  FaultInjector inj(FaultPlan::single(FaultSite::TaskThrow, 1.0,
                                      /*max_fires=*/3));
  int fired = 0;
  for (int k = 0; k < 50; ++k) fired += inj.fire(FaultSite::TaskThrow, k, 0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.fired_count(FaultSite::TaskThrow), 3);
  EXPECT_EQ(inj.occurrences(FaultSite::TaskThrow), 50);
}

TEST(FaultInjector, HookInstallationIsScoped) {
  EXPECT_EQ(fault_hook(), nullptr);
  {
    FaultInjectionScope scope(FaultPlan::single(FaultSite::TaskThrow, 1.0, 1));
    EXPECT_EQ(fault_hook(), &scope.injector());
    EXPECT_THROW(maybe_inject_task_fault(0, 0), InjectedFault);
    maybe_inject_task_fault(1, 1);  // capped: no further throws
  }
  EXPECT_EQ(fault_hook(), nullptr);
  maybe_inject_task_fault(2, 2);  // hook off: never throws
}

// --- RetryPolicy ----------------------------------------------------------

TEST(RetryPolicy, BackoffIsCappedAndJittered) {
  RetryPolicy rp;
  rp.max_attempts = 8;
  rp.base_backoff = milliseconds(2);
  rp.max_backoff = milliseconds(16);
  EXPECT_EQ(rp.backoff(1).count(), 0);  // first attempt never waits
  for (int attempt = 2; attempt <= 12; ++attempt) {
    const auto d = rp.backoff(attempt, /*salt=*/99);
    EXPECT_GE(d.count(), 1) << attempt;
    EXPECT_LE(d.count(), 16) << attempt;
  }
  // Deterministic for a given (attempt, salt).
  EXPECT_EQ(rp.backoff(5, 3).count(), rp.backoff(5, 3).count());
  RetryPolicy off;
  EXPECT_FALSE(off.enabled());
}

// --- checksums ------------------------------------------------------------

TEST(BlockChecksums, DetectsSingleBitCorruption) {
  BlockedTriangularMatrix<float> mat(128, 32);
  NpdpInstance<float> inst = pure_instance(128);
  ExecutionContext ctx;
  ctx.tuning.block_side = 32;
  solve_blocked_into(mat, inst, ctx);

  BlockChecksums<float> sums(mat);
  const index_t m = mat.blocks_per_side();
  for (index_t bj = 0; bj < m; ++bj)
    for (index_t bi = 0; bi <= bj; ++bi) sums.record(bi, bj);
  for (index_t bj = 0; bj < m; ++bj)
    for (index_t bi = 0; bi <= bj; ++bi) EXPECT_TRUE(sums.verify(bi, bj));

  float* cell = mat.block(1, 2);
  const float saved = cell[17];
  std::uint32_t bits;
  std::memcpy(&bits, &cell[17], sizeof bits);
  bits ^= 1u;  // flip the lowest mantissa bit
  std::memcpy(&cell[17], &bits, sizeof bits);
  EXPECT_FALSE(sums.verify(1, 2));
  EXPECT_TRUE(sums.verify(0, 2));  // neighbours unaffected
  cell[17] = saved;
  EXPECT_TRUE(sums.verify(1, 2));
}

// --- resilient solve ------------------------------------------------------

TEST(ResilientSolve, HealsDeterministicThrowsAndCorruption) {
  const index_t n = 256, bs = 32;
  NpdpInstance<float> inst = pure_instance(n);
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  BlockedTriangularMatrix<float> clean(n, bs);
  solve_blocked_into(clean, inst, ctx);

  FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({FaultSite::TaskThrow, 1.0, 3, 0});
  plan.rules.push_back({FaultSite::BlockCorrupt, 1.0, 4, 0});
  FaultInjectionScope scope(std::move(plan));

  BlockedTriangularMatrix<float> healed(n, bs);
  SolveStats rep;
  const SolveStatus st = solve_healing(healed, inst, ctx, &rep);
  EXPECT_EQ(st, SolveStatus::Ok);
  EXPECT_EQ(rep.block_retries, 3);
  EXPECT_EQ(rep.block_repairs, 4);
  EXPECT_TRUE(tables_identical(clean, healed));
}

TEST(ResilientSolve, RandomFaultPlanStaysBitIdentical) {
  // The acceptance scenario: 1% task throws + 0.1% block corruption, with
  // the solve still completing bit-identical to a clean run.
  const index_t n = 768, bs = 32;
  NpdpInstance<float> inst = pure_instance(n, 23);
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  BlockedTriangularMatrix<float> clean(n, bs);
  solve_blocked_into(clean, inst, ctx);

  FaultPlan plan;
  plan.seed = 42;
  plan.rules.push_back({FaultSite::TaskThrow, 0.01, -1, 0});
  plan.rules.push_back({FaultSite::BlockCorrupt, 0.001, -1, 0});
  FaultInjectionScope scope(std::move(plan));

  BlockedTriangularMatrix<float> healed(n, bs);
  const SolveStatus st = solve_healing(healed, inst, ctx);
  EXPECT_EQ(st, SolveStatus::Ok);
  EXPECT_TRUE(tables_identical(clean, healed));
}

TEST(ResilientSolve, GeneralModeRepairReseedsBeforeRecompute) {
  // finalize_cell folds min(init, weight + acc) over the current cell, so
  // naively re-running a corrupted block would fold garbage into the
  // answer; the repair path must re-seed first.
  const index_t n = 192, bs = 32;
  NpdpInstance<float> inst = general_instance(n);
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  BlockedTriangularMatrix<float> clean(n, bs);
  solve_blocked_into(clean, inst, ctx);

  FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back({FaultSite::BlockCorrupt, 1.0, 5, 0});
  FaultInjectionScope scope(std::move(plan));

  BlockedTriangularMatrix<float> healed(n, bs);
  SolveStats rep;
  ASSERT_EQ(solve_healing(healed, inst, ctx, &rep), SolveStatus::Ok);
  EXPECT_EQ(rep.block_repairs, 5);
  EXPECT_TRUE(tables_identical(clean, healed));
}

TEST(ResilientSolve, FiredFaultLogReplaysByteIdentically) {
  // The replay contract of --fault-log: one worker, one seeded plan under
  // which both sites fire, solved twice. Both recovery paths must run,
  // both tables must equal the clean solve, and both logs must match.
  const index_t n = 256, bs = 32;
  NpdpInstance<float> inst = pure_instance(n, 29);
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  BlockedTriangularMatrix<float> clean(n, bs);
  solve_blocked_into(clean, inst, ctx);

  FaultPlan plan;
  plan.seed = 42;
  plan.rules.push_back({FaultSite::TaskThrow, 0.1, -1, 0});
  plan.rules.push_back({FaultSite::BlockCorrupt, 0.1, -1, 0});
  std::string logs[2];
  for (std::string& log : logs) {
    FaultInjectionScope scope(plan);
    BlockedTriangularMatrix<float> healed(n, bs);
    SolveStats rep;
    ASSERT_EQ(solve_healing(healed, inst, ctx, &rep), SolveStatus::Ok);
    EXPECT_GT(rep.block_retries, 0);
    EXPECT_GT(rep.block_repairs, 0);
    EXPECT_TRUE(tables_identical(clean, healed));
    std::ostringstream os;
    scope.injector().write_log(os);
    log = os.str();
  }
  EXPECT_EQ(logs[0], logs[1]);
}

TEST(ResilientSolve, ResilientBackendMatchesBlockedSerial) {
  const auto& resilient = backend::require_backend("resilient");
  EXPECT_TRUE(resilient.caps().self_checking);
  const auto& serial = backend::require_backend("blocked-serial");
  NpdpInstance<float> inst = pure_instance(320, 17);
  ExecutionContext ctx;
  ctx.tuning.block_side = 32;
  const auto a = resilient.solve(inst, ctx);
  const auto b = serial.solve(inst, ctx);
  ASSERT_EQ(a.status, SolveStatus::Ok);
  EXPECT_EQ(a.value, b.value);
  ASSERT_NE(a.blocked, nullptr);
  ASSERT_NE(b.blocked, nullptr);
  EXPECT_TRUE(tables_identical(*a.blocked, *b.blocked));
}

// --- recovery on many workers ---------------------------------------------

TEST(Executor, ParallelSolveRetriesFailedTasksAndStaysExact) {
  const index_t n = 512, bs = 32;
  NpdpInstance<float> inst = pure_instance(n, 29);
  NpdpOptions opts;
  opts.block_side = bs;
  BlockedTriangularMatrix<float> clean = solve_blocked(inst, opts);

  FaultInjectionScope scope(
      FaultPlan::single(FaultSite::TaskThrow, 1.0, /*max_fires=*/2));
  const std::int64_t retries_before =
      obs::metrics().counter("sched.block_retries").value();

  BlockedTriangularMatrix<float> mat(n, bs);
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  ctx.tuning.threads = 4;
  ctx.retry.max_attempts = 4;
  ASSERT_EQ(solve_blocked_into(mat, inst, ctx), SolveStatus::Ok);
  EXPECT_TRUE(tables_identical(clean, mat));
  EXPECT_EQ(obs::metrics().counter("sched.block_retries").value(),
            retries_before + 2);
}

TEST(Executor, FailureWithoutRetryPropagatesInsteadOfHanging) {
  const index_t n = 256, bs = 32;
  NpdpInstance<float> inst = pure_instance(n);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FaultInjectionScope scope(
        FaultPlan::single(FaultSite::TaskThrow, 1.0, /*max_fires=*/1));
    BlockedTriangularMatrix<float> mat(n, bs);
    ExecutionContext ctx;
    ctx.tuning.block_side = bs;
    ctx.tuning.threads = threads;
    EXPECT_THROW(solve_blocked_into(mat, inst, ctx), InjectedFault)
        << threads << " threads";
  }
}

TEST(Executor, RetryBudgetExhaustionRethrowsLastError) {
  const index_t n = 192, bs = 32;
  NpdpInstance<float> inst = pure_instance(n);
  // Unlimited firings: every attempt of the first task throws.
  FaultInjectionScope scope(FaultPlan::single(FaultSite::TaskThrow, 1.0));
  BlockedTriangularMatrix<float> mat(n, bs);
  ExecutionContext ctx;
  ctx.tuning.block_side = bs;
  ctx.tuning.threads = 2;
  ctx.retry.max_attempts = 3;
  EXPECT_THROW(solve_blocked_into(mat, inst, ctx), InjectedFault);
}

// --- thread pool ----------------------------------------------------------

TEST(ThreadPool, WaitIdleAggregatesEveryJobException) {
  ThreadPool pool(2);
  for (int i = 0; i < 3; ++i)
    pool.submit([i] { throw std::runtime_error("job " + std::to_string(i)); });
  pool.submit([] {});
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(pool.last_errors().size(), 3u);
  for (const std::exception_ptr& e : pool.last_errors())
    EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);
  // A clean wave does not resurrect old errors...
  pool.submit([] {});
  pool.wait_idle();
  // ...but the last failing wave stays inspectable.
  EXPECT_EQ(pool.last_errors().size(), 3u);
}

TEST(ThreadPool, WorkerDeathIsHealedWithoutLosingJobs) {
  FaultInjectionScope scope(
      FaultPlan::single(FaultSite::WorkerDeath, 1.0, /*max_fires=*/2));
  const std::int64_t deaths_before =
      obs::metrics().counter("pool.worker_deaths").value();
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&ran] { ++ran; });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(pool.worker_deaths(), 2u);
    EXPECT_EQ(pool.thread_count(), 2u);
  }
  EXPECT_EQ(obs::metrics().counter("pool.worker_deaths").value(),
            deaths_before + 2);
}

// --- circuit breaker ------------------------------------------------------

BreakerPolicy fast_breaker() {
  BreakerPolicy p;
  p.window = 8;
  p.min_samples = 4;
  p.failure_threshold = 0.5;
  p.open_for = milliseconds(60);
  p.half_open_probes = 2;
  return p;
}

TEST(CircuitBreaker, WalksClosedOpenHalfOpenClosed) {
  CircuitBreaker br(fast_breaker());
  EXPECT_EQ(br.state(), BreakerState::Closed);
  EXPECT_TRUE(br.allow());
  for (int i = 0; i < 4; ++i) br.record_failure();
  EXPECT_EQ(br.state(), BreakerState::Open);
  EXPECT_FALSE(br.allow());
  EXPECT_GE(br.retry_after_ms(), 1);
  std::this_thread::sleep_for(milliseconds(80));
  EXPECT_TRUE(br.allow());  // probe 1 (now half-open)
  EXPECT_EQ(br.state(), BreakerState::HalfOpen);
  EXPECT_TRUE(br.allow());   // probe 2
  EXPECT_FALSE(br.allow());  // probe budget spent
  br.record_success();
  br.record_success();
  EXPECT_EQ(br.state(), BreakerState::Closed);
  EXPECT_TRUE(br.allow());
}

TEST(CircuitBreaker, AbandonedProbesReleaseTheirSlots) {
  CircuitBreaker br(fast_breaker());
  for (int i = 0; i < 4; ++i) br.record_failure();
  ASSERT_EQ(br.state(), BreakerState::Open);
  std::this_thread::sleep_for(milliseconds(80));
  ASSERT_TRUE(br.allow());
  ASSERT_TRUE(br.allow());
  ASSERT_FALSE(br.allow());  // probe budget spent
  // Both probes get cancelled mid-flight and report no outcome. Their
  // slots must come back, or the breaker is wedged HalfOpen forever.
  br.record_abandoned();
  br.record_abandoned();
  EXPECT_EQ(br.state(), BreakerState::HalfOpen);
  ASSERT_TRUE(br.allow());
  br.record_success();
  ASSERT_TRUE(br.allow());  // success freed its slot too
  br.record_success();
  EXPECT_EQ(br.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, FailedProbeReopensAndBelowThresholdStaysClosed) {
  CircuitBreaker br(fast_breaker());
  for (int i = 0; i < 4; ++i) br.record_failure();
  ASSERT_EQ(br.state(), BreakerState::Open);
  std::this_thread::sleep_for(milliseconds(80));
  ASSERT_TRUE(br.allow());
  br.record_failure();  // probe fails
  EXPECT_EQ(br.state(), BreakerState::Open);
  EXPECT_FALSE(br.allow());

  CircuitBreaker healthy(fast_breaker());
  for (int i = 0; i < 100; ++i) {
    healthy.record_success();
    if (i % 3 == 0) healthy.record_failure();  // ~33% < 50% threshold
  }
  EXPECT_EQ(healthy.state(), BreakerState::Closed);
}

TEST(BreakerBoard, SnapshotAndForceOpen) {
  resilience::breakers().clear();
  CircuitBreaker& br = resilience::breakers().breaker("unit-test-backend");
  EXPECT_EQ(resilience::breakers().find("unit-test-backend"), &br);
  EXPECT_EQ(resilience::breakers().find("missing"), nullptr);
  br.force_open();
  const auto rows = resilience::breakers().snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "unit-test-backend");
  EXPECT_EQ(rows[0].state, BreakerState::Open);
  EXPECT_GE(rows[0].retry_after_ms, 1);
  resilience::breakers().clear();
}

// --- serve-layer resilience ----------------------------------------------

serve::Request solve_request(index_t n, std::uint64_t seed) {
  serve::Request r;
  serve::SolveSpec s;
  s.n = n;
  s.seed = seed;
  s.block_side = 32;
  r.payload = s;
  return r;
}

TEST(ServeResilience, RetriesRecoverFromInjectedThrows) {
  FaultInjectionScope scope(
      FaultPlan::single(FaultSite::TaskThrow, 1.0, /*max_fires=*/2));
  serve::ServiceOptions so;
  so.workers = 1;
  so.resilience.retry.max_attempts = 4;
  serve::SolveService svc(so);
  const serve::Response r = svc.submit(solve_request(96, 1)).get();
  EXPECT_EQ(r.status, serve::Status::Ok);
  svc.stop();
  EXPECT_EQ(svc.stats().retries, 2u);
  EXPECT_EQ(svc.stats().errors, 0u);
}

TEST(ServeResilience, ExhaustedRetriesWithoutFallbackAnswerError) {
  FaultInjectionScope scope(FaultPlan::single(FaultSite::TaskThrow, 1.0));
  serve::ServiceOptions so;
  so.workers = 1;
  so.resilience.retry.max_attempts = 2;
  serve::SolveService svc(so);
  const serve::Response r = svc.submit(solve_request(96, 2)).get();
  EXPECT_EQ(r.status, serve::Status::Error);
  svc.stop();
  EXPECT_EQ(svc.stats().retries, 1u);
}

TEST(ServeResilience, OpenBreakerShedsWithRetryAfterHint) {
  resilience::breakers().clear();
  serve::ServiceOptions so;
  so.workers = 1;
  so.resilience.breaker_enabled = true;
  serve::SolveService svc(so);
  resilience::breakers().breaker(so.backend).force_open();
  const serve::Response r = svc.submit(solve_request(96, 3)).get();
  EXPECT_EQ(r.status, serve::Status::RetryAfter);
  EXPECT_GE(r.retry_after_ms, 1);
  svc.stop();
  EXPECT_EQ(svc.stats().retry_after, 1u);
  EXPECT_EQ(svc.stats().responded(), svc.stats().submitted);
  resilience::breakers().clear();
}

TEST(ServeResilience, OpenBreakerDegradesOntoFallbackBackend) {
  resilience::breakers().clear();
  serve::ServiceOptions so;
  so.workers = 1;
  so.resilience.breaker_enabled = true;
  so.resilience.fallback_backend = "reference";
  serve::SolveService svc(so);
  resilience::breakers().breaker(so.backend).force_open();
  // The clean answer, for comparison.
  serve::SolverPool oracle(1);
  const serve::SolveOutcome expect = oracle.execute(solve_request(96, 4));
  ASSERT_TRUE(expect.ok);

  const serve::Response r = svc.submit(solve_request(96, 4)).get();
  EXPECT_EQ(r.status, serve::Status::Degraded);
  EXPECT_TRUE(serve::is_success(r.status));
  EXPECT_EQ(r.value, expect.value);
  svc.stop();
  EXPECT_EQ(svc.stats().degraded, 1u);
  EXPECT_EQ(svc.stats().fallbacks, 1u);
  resilience::breakers().clear();
}

TEST(ServeResilience, RepeatedFailuresTripTheBreaker) {
  resilience::breakers().clear();
  // Every attempt throws; breaker policy trips quickly.
  FaultInjectionScope scope(FaultPlan::single(FaultSite::TaskThrow, 1.0));
  serve::ServiceOptions so;
  so.workers = 1;
  so.batch_max = 1;
  so.resilience.breaker_enabled = true;
  so.resilience.breaker.window = 8;
  so.resilience.breaker.min_samples = 4;
  so.resilience.breaker.open_for = seconds(30);
  serve::SolveService svc(so);
  std::vector<std::future<serve::Response>> futs;
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    futs.push_back(svc.submit(solve_request(96, 100 + seed)));
  std::uint64_t errors = 0, retry_after = 0;
  for (auto& f : futs) {
    const serve::Response r = f.get();
    errors += r.status == serve::Status::Error;
    retry_after += r.status == serve::Status::RetryAfter;
  }
  svc.stop();
  EXPECT_GE(errors, 4u);       // the failures that tripped it
  EXPECT_GE(retry_after, 1u);  // later requests refused while open
  const CircuitBreaker* br = resilience::breakers().find(so.backend);
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(br->state(), BreakerState::Open);
  resilience::breakers().clear();
}

TEST(ServeResilience, HedgedStragglerFinishesFast) {
  serve::ServiceOptions so;
  so.workers = 2;
  so.resilience.hedge.enabled = true;
  so.resilience.hedge.k = 3.0;
  so.resilience.hedge.min_samples = 8;
  serve::SolveService svc(so);
  // Warm the latency estimate with distinct seeds (no cache hits).
  std::vector<std::future<serve::Response>> warm;
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    warm.push_back(svc.submit(solve_request(128, seed)));
  for (auto& f : warm) ASSERT_TRUE(serve::is_success(f.get().status));

  // One straggler: the next request stalls 400ms inside the worker.
  FaultInjectionScope scope(FaultPlan::single(
      FaultSite::TaskStall, 1.0, /*max_fires=*/1, /*seed=*/1,
      /*stall_ms=*/400));
  const serve::Response r = svc.submit(solve_request(128, 999)).get();
  EXPECT_EQ(r.status, serve::Status::Ok);
  // Bounded by healthy-task latency (millisecond scale), far under the
  // injected stall; the generous margin keeps slow CI honest.
  EXPECT_LT(r.total_ns, 300 * 1'000'000LL);
  svc.stop();
  EXPECT_GE(svc.stats().hedges, 1u);
  EXPECT_GE(svc.stats().hedge_wins, 1u);
  EXPECT_EQ(svc.stats().responded(), svc.stats().submitted);
}

TEST(ServeResilience, QueueOverloadInjectionRejectsAtAdmission) {
  FaultInjectionScope scope(
      FaultPlan::single(FaultSite::QueueOverload, 1.0, /*max_fires=*/1));
  serve::SolveService svc;
  const serve::Response first = svc.submit(solve_request(96, 7)).get();
  EXPECT_EQ(first.status, serve::Status::Rejected);
  EXPECT_EQ(first.detail, "injected queue overload");
  const serve::Response second = svc.submit(solve_request(96, 8)).get();
  EXPECT_EQ(second.status, serve::Status::Ok);
  svc.stop();
}

TEST(ServeResilience, ShedBumpsObsCounterAndStats) {
  const std::int64_t shed_before =
      obs::metrics().counter("serve.shed").value();
  serve::ServiceOptions so;
  so.workers = 1;
  so.queue_capacity = 1;
  so.policy = serve::OverloadPolicy::ShedOldest;
  so.batch_max = 1;
  serve::SolveService svc(so);
  std::vector<std::future<serve::Response>> futs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    serve::Request r;
    serve::FoldSpec f;
    f.random_n = 200;
    f.seed = seed;
    r.payload = f;
    futs.push_back(svc.submit(std::move(r)));
  }
  std::this_thread::sleep_for(milliseconds(20));
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    serve::Request r;
    serve::FoldSpec f;
    f.random_n = 200;
    f.seed = seed;
    r.payload = f;
    futs.push_back(svc.submit(std::move(r)));
  }
  std::uint64_t shed = 0;
  for (auto& f : futs) shed += f.get().status == serve::Status::Shed;
  svc.stop();
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(svc.stats().shed, shed);
  EXPECT_EQ(obs::metrics().counter("serve.shed").value(),
            shed_before + std::int64_t(shed));
}

// --- cancel-token re-arm over a reused arena (PR 3 follow-up) -------------

TEST(CancelToken, RearmAfterCancelledSolveReusesSameArena) {
  const index_t n = 256, bs = 32;
  NpdpInstance<float> inst = pure_instance(n, 31);
  NpdpOptions opts;
  opts.block_side = bs;
  const BlockedTriangularMatrix<float> clean =
      solve_blocked(inst, opts);

  BlockedTriangularMatrix<float> arena(n, bs);
  ExecutionContext ctx;
  ctx.tuning = opts;
  ctx.cancel = CancelToken::armed();
  ctx.cancel.request_cancel();  // tripped before the solve starts
  ASSERT_EQ(solve_blocked_into(arena, inst, ctx),
            SolveStatus::Cancelled);

  // Re-arm with a fresh token, reset the same arena, solve to completion:
  // the partial/cancelled state must leave no residue.
  ctx.cancel = CancelToken::armed();
  arena.reset();
  ASSERT_EQ(solve_blocked_into(arena, inst, ctx), SolveStatus::Ok);
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_TRUE(tables_identical(clean, arena));
}

}  // namespace
}  // namespace cellnpdp

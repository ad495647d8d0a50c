// Tests for the src/serve subsystem: admission-queue ordering and overload
// policies, the batcher, the LRU result cache, solver-pool arena reuse,
// request-line parsing, ThreadPool exception propagation, and the service
// end to end (correctness vs the direct solver, cache hits, deadline
// shedding, priority dispatch, shutdown with in-flight work).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "apps/matrix_chain/matrix_chain.hpp"
#include "apps/optimal_bst/optimal_bst.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/solve.hpp"
#include "resilience/circuit_breaker.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/result_cache.hpp"
#include "serve/service.hpp"
#include "serve/solver_pool.hpp"

namespace cellnpdp::serve {
namespace {

using std::chrono::milliseconds;

Request solve_request(index_t n, std::uint64_t seed, index_t block = 32) {
  Request r;
  SolveSpec s;
  s.n = n;
  s.seed = seed;
  s.block_side = block;
  r.payload = s;
  return r;
}

Request fold_request(index_t random_n, std::uint64_t seed) {
  Request r;
  FoldSpec f;
  f.random_n = random_n;
  f.seed = seed;
  r.payload = f;
  return r;
}

/// Ground truth for a solve request: the library's own blocked solver.
float direct_solve_value(index_t n, std::uint64_t seed, index_t block) {
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [seed](index_t i, index_t j) {
    return random_init_value<float>(seed, i, j);
  };
  NpdpOptions opts;
  opts.block_side = block;
  return solve_blocked(inst, opts).at(0, n - 1);
}

// --- AdmissionQueue --------------------------------------------------------

TEST(AdmissionQueue, PopsPriorityDescendingThenFifo) {
  AdmissionQueue<int> q(16, OverloadPolicy::Reject);
  EXPECT_EQ(q.push(10, 0), Admission::Admitted);
  EXPECT_EQ(q.push(20, 5), Admission::Admitted);
  EXPECT_EQ(q.push(21, 5), Admission::Admitted);
  EXPECT_EQ(q.push(30, 1), Admission::Admitted);
  int v = 0;
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 20);  // highest priority
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 21);  // same priority: FIFO
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 30);
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 10);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.admitted(), 4u);
}

TEST(AdmissionQueue, RejectPolicyRejectsOnlyWhileFull) {
  AdmissionQueue<int> q(2, OverloadPolicy::Reject);
  EXPECT_EQ(q.push(1), Admission::Admitted);
  EXPECT_EQ(q.push(2), Admission::Admitted);
  EXPECT_EQ(q.push(3), Admission::Rejected);
  int v = 0;
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(q.push(4), Admission::Admitted);  // space freed
  EXPECT_EQ(q.rejected(), 1u);
}

TEST(AdmissionQueue, BlockPolicyAppliesBackpressure) {
  AdmissionQueue<int> q(1, OverloadPolicy::Block);
  ASSERT_EQ(q.push(1), Admission::Admitted);
  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(2), Admission::Admitted);
    second_admitted.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(second_admitted.load());  // still blocked on the full queue
  int v = 0;
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 2);
}

TEST(AdmissionQueue, ShedOldestEvictsGloballyOldestEntry) {
  AdmissionQueue<int> q(2, OverloadPolicy::ShedOldest);
  std::vector<int> shed;
  q.set_shed_handler([&](int&& v) { shed.push_back(v); });
  // Admission order decides the victim, not priority.
  ASSERT_EQ(q.push(1, 9), Admission::Admitted);
  ASSERT_EQ(q.push(2, 0), Admission::Admitted);
  ASSERT_EQ(q.push(3, 0), Admission::Admitted);  // full: evicts 1
  EXPECT_EQ(shed, std::vector<int>({1}));
  EXPECT_EQ(q.shed(), 1u);
  int v = 0;
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 2);
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 3);
}

TEST(AdmissionQueue, ShedHandlerMayRePushWithoutDeadlockOrRecursion) {
  // Regression test for the handler reentrancy contract (queue.hpp): a
  // shed handler that pushes back into the same full queue must neither
  // deadlock (the handler runs with the lock released) nor recurse
  // unboundedly (cascading evictions drain iteratively via the backlog).
  AdmissionQueue<int> q(2, OverloadPolicy::ShedOldest);
  std::vector<int> shed;
  int depth = 0, max_depth = 0;
  q.set_shed_handler([&](int&& v) {
    ++depth;
    if (depth > max_depth) max_depth = depth;
    shed.push_back(v);
    // Re-push the original victims; each re-push into the full queue
    // evicts another entry, so this would recurse without the backlog.
    if (v < 100) {
      EXPECT_EQ(q.push(v + 100, 0), Admission::Admitted);
    }
    --depth;
  });
  ASSERT_EQ(q.push(1, 0), Admission::Admitted);
  ASSERT_EQ(q.push(2, 0), Admission::Admitted);
  // Full. This push evicts 1; the handler re-pushes 101, evicting 2,
  // whose handler re-pushes 102, evicting 3 (the entry just admitted)...
  // the cascade ends when a re-pushed (>= 100) victim is not re-pushed.
  ASSERT_EQ(q.push(3, 0), Admission::Admitted);
  EXPECT_EQ(max_depth, 1);              // never nested
  EXPECT_EQ(q.depth(), 2u);             // still exactly at capacity
  EXPECT_GE(shed.size(), 3u);           // 1, 2, and at least one more
  EXPECT_EQ(shed[0], 1);
  EXPECT_EQ(shed[1], 2);
  EXPECT_EQ(q.shed(), shed.size());     // every eviction was delivered
  // The queue still works normally afterwards.
  int v = 0;
  ASSERT_EQ(q.pop(v), PopResult::Item);
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionQueue, ExpiredHeadEntriesGoToTheHandler) {
  AdmissionQueue<int> q(8, OverloadPolicy::Reject);
  std::vector<int> dead;
  q.set_expiry([](const int& v) { return v % 2 == 1; },
               [&](int&& v) { dead.push_back(v); });
  for (int v : {1, 2, 3, 4}) ASSERT_EQ(q.push(v), Admission::Admitted);
  int v = 0;
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 2);
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 4);
  EXPECT_EQ(dead, std::vector<int>({1, 3}));
  EXPECT_EQ(q.expired(), 2u);
  EXPECT_EQ(q.pop_wait_for(v, milliseconds(1)), PopResult::TimedOut);
}

TEST(AdmissionQueue, CloseDrainsRemainingEntriesThenReportsClosed) {
  AdmissionQueue<int> q(4, OverloadPolicy::Reject);
  ASSERT_EQ(q.push(7), Admission::Admitted);
  q.close();
  EXPECT_EQ(q.push(8), Admission::Closed);
  int v = 0;
  ASSERT_EQ(q.pop(v), PopResult::Item);
  EXPECT_EQ(v, 7);
  EXPECT_EQ(q.pop(v), PopResult::Closed);
}

TEST(AdmissionQueue, CloseWakesABlockedProducer) {
  AdmissionQueue<int> q(1, OverloadPolicy::Block);
  ASSERT_EQ(q.push(1), Admission::Admitted);
  std::atomic<int> result{-1};
  std::thread producer(
      [&] { result.store(static_cast<int>(q.push(2))); });
  std::this_thread::sleep_for(milliseconds(10));
  q.close();
  producer.join();
  EXPECT_EQ(result.load(), static_cast<int>(Admission::Closed));
}

// --- Batcher ---------------------------------------------------------------

TEST(Batcher, FlushesAtMaxBatchPerKeyAndDrainsPartials) {
  Batcher<int> b(3);
  EXPECT_TRUE(b.add(1, 10).items.empty());
  EXPECT_TRUE(b.add(2, 20).items.empty());
  EXPECT_TRUE(b.add(1, 11).items.empty());
  EXPECT_EQ(b.pending(), 3u);
  const Batch<int> full = b.add(1, 12);
  EXPECT_EQ(full.key, 1u);
  EXPECT_EQ(full.items, std::vector<int>({10, 11, 12}));
  EXPECT_EQ(b.pending(), 1u);
  const auto rest = b.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].key, 2u);
  EXPECT_EQ(rest[0].items, std::vector<int>({20}));
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_TRUE(b.drain().empty());
}

// --- ResultCache -----------------------------------------------------------

TEST(ResultCache, HitsPromoteAndCapacityEvictsLeastRecent) {
  ResultCache<int> c(2);
  int v = 0;
  EXPECT_FALSE(c.get(1, &v));  // cold miss
  c.put(1, 100);
  c.put(2, 200);
  EXPECT_TRUE(c.get(1, &v));  // promotes 1 over 2
  EXPECT_EQ(v, 100);
  c.put(3, 300);  // evicts 2, the least recently used
  EXPECT_FALSE(c.get(2, &v));
  EXPECT_TRUE(c.get(1, &v));
  EXPECT_TRUE(c.get(3, &v));
  EXPECT_EQ(v, 300);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.hits(), 3u);
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(ResultCache, PutRefreshesAnExistingKey) {
  ResultCache<int> c(4);
  c.put(1, 100);
  c.put(1, 101);
  int v = 0;
  EXPECT_TRUE(c.get(1, &v));
  EXPECT_EQ(v, 101);
  EXPECT_EQ(c.size(), 1u);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  ResultCache<int> c(0);
  c.put(1, 100);
  int v = 0;
  EXPECT_FALSE(c.get(1, &v));
  EXPECT_EQ(c.size(), 0u);
}

// --- ThreadPool exception propagation --------------------------------------

TEST(ThreadPoolErrors, WaitIdleRethrowsTheFirstJobException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The pool stays healthy and reusable after the rethrow.
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolErrors, OtherJobsStillRunAndLaterWaitsAreClean) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.submit([&] { ++ran; });
  pool.submit([] { throw std::runtime_error("x"); });
  for (int i = 0; i < 8; ++i) pool.submit([&] { ++ran; });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // a throwing job never blocks the others
  pool.wait_idle();           // the error was consumed by the first wait
}

// --- SolverPool ------------------------------------------------------------

TEST(SolverPool, SolveMatchesTheDirectBlockedSolver) {
  SolverPool pool(1);
  const SolveOutcome o = pool.execute(solve_request(96, 5));
  ASSERT_TRUE(o.ok) << o.error;
  EXPECT_FALSE(o.arena_reused);
  EXPECT_EQ(static_cast<float>(o.value), direct_solve_value(96, 5, 32));
}

TEST(SolverPool, ReusedArenaGivesIdenticalResults) {
  SolverPool pool(1);
  const SolveOutcome first = pool.execute(solve_request(64, 1));
  const SolveOutcome again = pool.execute(solve_request(64, 1));
  ASSERT_TRUE(first.ok && again.ok);
  EXPECT_FALSE(first.arena_reused);
  EXPECT_TRUE(again.arena_reused);
  EXPECT_EQ(first.value, again.value);
  EXPECT_EQ(pool.arena_allocations(), 1u);
  EXPECT_EQ(pool.arena_reuses(), 1u);
  // A different instance on the same shape must not see stale state.
  const SolveOutcome other = pool.execute(solve_request(64, 2));
  ASSERT_TRUE(other.ok) << other.error;
  EXPECT_TRUE(other.arena_reused);
  EXPECT_EQ(static_cast<float>(other.value), direct_solve_value(64, 2, 32));
  // Nor after a semiring switch (the one re-pad left) or a cancelled solve.
  Request counting = solve_request(64, 3);
  std::get<SolveSpec>(counting.payload).semiring = SemiringId::Counting;
  ASSERT_TRUE(pool.execute(counting).ok);
  const SolveOutcome after_switch = pool.execute(solve_request(64, 4));
  ASSERT_TRUE(after_switch.ok) << after_switch.error;
  EXPECT_EQ(static_cast<float>(after_switch.value),
            direct_solve_value(64, 4, 32));
  const CancelToken tripped = CancelToken::armed();
  tripped.request_cancel();
  EXPECT_TRUE(pool.execute(solve_request(64, 5), tripped).cancelled);
  const SolveOutcome after_cancel = pool.execute(solve_request(64, 6));
  ASSERT_TRUE(after_cancel.ok) << after_cancel.error;
  EXPECT_EQ(static_cast<float>(after_cancel.value),
            direct_solve_value(64, 6, 32));
  EXPECT_EQ(pool.arena_allocations(), 1u);
}

TEST(SolverPool, FoldAndParseRequestsExecute) {
  SolverPool pool(1);
  Request f = fold_request(60, 3);
  const SolveOutcome of = pool.execute(f);
  ASSERT_TRUE(of.ok) << of.error;
  EXPECT_FALSE(of.detail.empty());  // dot-bracket structure

  Request p;
  ParseSpec ps;
  ps.grammar = ParseSpec::GrammarKind::Parens;
  ps.text = "(()())";
  p.payload = ps;
  const SolveOutcome accepted = pool.execute(p);
  ASSERT_TRUE(accepted.ok) << accepted.error;
  EXPECT_EQ(accepted.detail, "accepted");

  ps.text = "(()";
  p.payload = ps;
  const SolveOutcome rejected = pool.execute(p);
  ASSERT_TRUE(rejected.ok) << rejected.error;
  EXPECT_EQ(rejected.detail, "rejected");
  EXPECT_EQ(rejected.value, -1.0);
}

TEST(SolverPool, SolverExceptionsBecomeErrorOutcomes) {
  SolverPool pool(1);
  const SolveOutcome o = pool.execute(solve_request(0, 1));
  EXPECT_FALSE(o.ok);
  EXPECT_FALSE(o.error.empty());
}

// --- request parsing and hashing -------------------------------------------

TEST(RequestParsing, ParsesAFullSolveLine) {
  Request r;
  std::string err;
  const Clock::time_point now = Clock::now();
  ASSERT_TRUE(parse_request_line(
      "solve n=128 seed=9 block=32 kernel=scalar id=4 priority=2 "
      "deadline-ms=50",
      &r, &err, now))
      << err;
  ASSERT_TRUE(std::holds_alternative<SolveSpec>(r.payload));
  const auto& s = std::get<SolveSpec>(r.payload);
  EXPECT_EQ(s.n, 128);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.block_side, 32);
  EXPECT_EQ(s.kernel, KernelKind::Scalar);
  EXPECT_EQ(r.id, 4u);
  EXPECT_EQ(r.priority, 2);
  ASSERT_TRUE(r.has_deadline());
  EXPECT_EQ(r.deadline, now + milliseconds(50));
}

TEST(RequestParsing, ParsesSemiringAndDefaultsToMinPlus) {
  Request r;
  std::string err;
  // Lines that never mention a semiring keep the min-plus default.
  ASSERT_TRUE(parse_request_line("solve n=64", &r, &err)) << err;
  EXPECT_EQ(std::get<SolveSpec>(r.payload).semiring, SemiringId::MinPlus);
  ASSERT_TRUE(parse_request_line("solve n=64 semiring=max-plus", &r, &err))
      << err;
  EXPECT_EQ(std::get<SolveSpec>(r.payload).semiring, SemiringId::MaxPlus);
  ASSERT_TRUE(parse_request_line("solve n=64 semiring=counting", &r, &err))
      << err;
  EXPECT_EQ(std::get<SolveSpec>(r.payload).semiring, SemiringId::Counting);
  ASSERT_TRUE(parse_request_line("solve n=64 semiring=viterbi-log", &r, &err))
      << err;
  EXPECT_EQ(std::get<SolveSpec>(r.payload).semiring, SemiringId::ViterbiLog);
  EXPECT_FALSE(parse_request_line("solve n=64 semiring=tropical", &r, &err));
  EXPECT_NE(err.find("semiring"), std::string::npos) << err;
}

TEST(RequestParsing, ParsesFoldAndParseLines) {
  Request r;
  std::string err;
  ASSERT_TRUE(parse_request_line("fold seq=ACGUACGU", &r, &err)) << err;
  EXPECT_EQ(std::get<FoldSpec>(r.payload).seq, "ACGUACGU");
  ASSERT_TRUE(parse_request_line("fold random=120 seed=3", &r, &err)) << err;
  EXPECT_EQ(std::get<FoldSpec>(r.payload).random_n, 120);
  ASSERT_TRUE(parse_request_line("parse anbn=aabb", &r, &err)) << err;
  EXPECT_EQ(std::get<ParseSpec>(r.payload).grammar,
            ParseSpec::GrammarKind::Anbn);
  EXPECT_EQ(std::get<ParseSpec>(r.payload).text, "aabb");
}

TEST(RequestParsing, RejectsMalformedLines) {
  Request r;
  std::string err;
  EXPECT_FALSE(parse_request_line("solve n=64 n=64", &r, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
  EXPECT_FALSE(parse_request_line("frobnicate n=4", &r, &err));
  EXPECT_FALSE(parse_request_line("solve n=abc", &r, &err));
  EXPECT_FALSE(parse_request_line("solve n=0", &r, &err));
  EXPECT_FALSE(parse_request_line("solve kernel=avx1024", &r, &err));
  EXPECT_FALSE(parse_request_line("solve frob=1", &r, &err));
  EXPECT_FALSE(parse_request_line("parse", &r, &err));
}

TEST(RequestHashing, ContentHashIgnoresIdPriorityAndDeadline) {
  Request a = solve_request(128, 7);
  Request b = solve_request(128, 7);
  b.id = 99;
  b.priority = 3;
  b.deadline = Clock::now() + milliseconds(100);
  EXPECT_EQ(content_hash(a), content_hash(b));
  EXPECT_NE(content_hash(a), content_hash(solve_request(128, 8)));
  // Shape keys ignore the seed: same geometry batches together.
  EXPECT_EQ(shape_key(a), shape_key(solve_request(128, 8)));
  EXPECT_NE(shape_key(a), shape_key(solve_request(256, 7)));
}

// --- SolveService end to end -----------------------------------------------

TEST(SolveService, SolvesMatchDirectSolverAndRepeatsHitTheCache) {
  ServiceOptions so;
  so.workers = 2;
  SolveService svc(so);
  Request r = solve_request(96, 11);
  r.id = 1;
  const Response a = svc.submit(r).get();
  ASSERT_EQ(a.status, Status::Ok) << a.detail;
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(static_cast<float>(a.value), direct_solve_value(96, 11, 32));
  EXPECT_GT(a.total_ns, 0);

  r.id = 2;  // identical content: must come out of the cache
  const Response b = svc.submit(r).get();
  EXPECT_EQ(b.status, Status::OkCached);
  EXPECT_EQ(b.id, 2u);
  EXPECT_EQ(b.value, a.value);

  svc.stop();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.responded(), st.submitted);
}

TEST(SolveService, MixedWorkloadAllSucceedWithArenaReuseAndBatching) {
  ServiceOptions so;
  so.workers = 2;
  so.batch_max = 4;
  SolveService svc(so);
  std::vector<std::future<Response>> futs;
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    futs.push_back(svc.submit(solve_request(64, seed)));
  futs.push_back(svc.submit(fold_request(80, 1)));
  Request p;
  ParseSpec ps;
  ps.text = "((()))";
  p.payload = ps;
  futs.push_back(svc.submit(p));
  for (auto& f : futs) {
    const Response resp = f.get();
    EXPECT_TRUE(is_success(resp.status)) << status_name(resp.status);
  }
  svc.stop();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.responded(), st.submitted);
  EXPECT_EQ(st.rejected + st.shed + st.expired + st.errors, 0u);
  EXPECT_GE(st.batches, 1u);
  EXPECT_GT(st.arena_reuses, 0u);  // ten same-shape solves share arenas
}

TEST(SolveService, ExpiredDeadlinesAreShedWithoutSolving) {
  ServiceOptions so;
  so.workers = 1;
  SolveService svc(so);
  Request r = solve_request(64, 1);
  r.deadline = Clock::now() - milliseconds(1);  // already dead
  const Response resp = svc.submit(r).get();
  EXPECT_EQ(resp.status, Status::Expired);
  svc.stop();
  EXPECT_EQ(svc.stats().expired, 1u);
  EXPECT_EQ(svc.stats().completed, 0u);
}

TEST(SolveService, RejectPolicyShedsBurstsButAnswersEveryRequest) {
  ServiceOptions so;
  so.workers = 1;
  so.queue_capacity = 1;
  so.policy = OverloadPolicy::Reject;
  so.batch_max = 1;  // max_inflight == 2: backlog reaches the queue fast
  SolveService svc(so);
  std::vector<std::future<Response>> futs;
  // Fill the worker, the in-flight window, and the one queue slot...
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    futs.push_back(svc.submit(fold_request(200, seed)));
  std::this_thread::sleep_for(milliseconds(20));
  // ...then burst: the queue is full, so Reject fires.
  for (std::uint64_t seed = 100; seed < 108; ++seed)
    futs.push_back(svc.submit(fold_request(200, seed)));
  std::uint64_t rejected = 0;
  for (auto& f : futs) {
    const Response resp = f.get();
    if (resp.status == Status::Rejected) ++rejected;
    EXPECT_TRUE(resp.status == Status::Rejected || resp.status == Status::Ok)
        << status_name(resp.status);
  }
  EXPECT_GT(rejected, 0u);
  svc.stop();
  EXPECT_EQ(svc.stats().responded(), svc.stats().submitted);
}

TEST(SolveService, ShedOldestPolicyEvictsButAnswersEveryRequest) {
  ServiceOptions so;
  so.workers = 1;
  so.queue_capacity = 1;
  so.policy = OverloadPolicy::ShedOldest;
  so.batch_max = 1;
  SolveService svc(so);
  std::vector<std::future<Response>> futs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    futs.push_back(svc.submit(fold_request(200, seed)));
  std::this_thread::sleep_for(milliseconds(20));
  for (std::uint64_t seed = 100; seed < 108; ++seed)
    futs.push_back(svc.submit(fold_request(200, seed)));
  std::uint64_t shed = 0;
  for (auto& f : futs) {
    const Response resp = f.get();
    if (resp.status == Status::Shed) ++shed;
  }
  EXPECT_GT(shed, 0u);
  svc.stop();
  EXPECT_EQ(svc.stats().shed, shed);
  EXPECT_EQ(svc.stats().responded(), svc.stats().submitted);
}

TEST(SolveService, HigherPriorityRequestsAreDispatchedFirst) {
  // The queue-level ordering guarantee is covered deterministically above;
  // this checks it end to end. Scheduling noise can perturb the saturation
  // setup under heavy machine load, so the scenario retries a few times.
  bool ordered = false;
  for (int attempt = 0; attempt < 3 && !ordered; ++attempt) {
    ServiceOptions so;
    so.workers = 1;
    so.batch_max = 1;
    SolveService svc(so);
    std::vector<std::future<Response>> blockers;
    // Saturate the worker and the in-flight window (plus the one request
    // the dispatcher holds while waiting), so later submissions queue up.
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      blockers.push_back(svc.submit(fold_request(240, seed)));
    for (int i = 0; i < 1000 && svc.stats().queue_depth > 0; ++i)
      std::this_thread::sleep_for(milliseconds(1));
    // These sit in the queue together; pops must follow priority.
    std::vector<std::future<Response>> futs;
    for (int prio = 1; prio <= 4; ++prio) {
      Request r = fold_request(100, 50 + static_cast<std::uint64_t>(prio));
      r.priority = prio;
      futs.push_back(svc.submit(r));
    }
    std::vector<std::int64_t> queue_ns;
    for (auto& f : futs) {
      const Response resp = f.get();
      EXPECT_EQ(resp.status, Status::Ok);
      queue_ns.push_back(resp.queue_ns);
    }
    svc.stop();
    // Higher priority -> picked up earlier -> smaller queue wait.
    ordered = queue_ns[3] < queue_ns[2] && queue_ns[2] < queue_ns[1] &&
              queue_ns[1] < queue_ns[0];
  }
  EXPECT_TRUE(ordered);
}

TEST(SolveService, StopWithDrainCompletesEverything) {
  ServiceOptions so;
  so.workers = 2;
  SolveService svc(so);
  std::vector<std::future<Response>> futs;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    futs.push_back(svc.submit(solve_request(64, seed)));
  svc.stop(true);  // drain: every admitted request still gets solved
  for (auto& f : futs) EXPECT_TRUE(is_success(f.get().status));
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.responded(), 12u);
  EXPECT_EQ(st.cancelled + st.rejected + st.shed + st.errors, 0u);
}

TEST(SolveService, StopWithoutDrainCancelsQueuedButFinishesInflight) {
  ServiceOptions so;
  so.workers = 1;
  so.batch_max = 1;
  SolveService svc(so);
  std::vector<std::future<Response>> futs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    futs.push_back(svc.submit(fold_request(180, seed)));
  std::this_thread::sleep_for(milliseconds(5));
  svc.stop(false);
  svc.stop(false);  // idempotent
  std::uint64_t ok = 0, cancelled = 0;
  for (auto& f : futs) {
    const Response resp = f.get();  // every future resolves, no hang
    if (resp.status == Status::Ok) ++ok;
    if (resp.status == Status::Cancelled) ++cancelled;
    EXPECT_TRUE(resp.status == Status::Ok || resp.status == Status::Cancelled)
        << status_name(resp.status);
  }
  EXPECT_GE(ok, 1u);         // in-flight work ran to completion
  EXPECT_GE(cancelled, 1u);  // queued work was answered, not solved
  EXPECT_EQ(svc.stats().responded(), 8u);
  // Submitting after stop rejects instead of hanging.
  const Response late = svc.submit(solve_request(64, 99)).get();
  EXPECT_EQ(late.status, Status::Rejected);
}

// --- callback-form submit (the network front-end's path) -------------------

TEST(SolveService, CallbackSubmitDeliversExactlyOneResponse) {
  ServiceOptions so;
  so.workers = 2;
  SolveService svc(so);
  std::promise<Response> got;
  Request r = solve_request(96, 5);
  r.id = 42;
  svc.submit(std::move(r), [&](Response resp) { got.set_value(resp); });
  const Response resp = got.get_future().get();
  EXPECT_EQ(resp.id, 42u);
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_EQ(resp.value, direct_solve_value(96, 5, 32));
  // The effective engine is always named, even when the request left the
  // backend field empty (satellite of the wire protocol: clients see it).
  EXPECT_EQ(resp.backend, so.backend);
  svc.stop();
}

TEST(SolveService, CallbackSubmitAfterStopStillGetsItsCallback) {
  SolveService svc(ServiceOptions{});
  svc.stop();
  // The admission queue is closed now; push returns Closed (documented on
  // AdmissionQueue::push) and the service answers Rejected — the callback
  // must fire anyway, or a network connection would leak its in-flight
  // accounting forever.
  std::promise<Response> got;
  svc.submit(solve_request(64, 6), [&](Response r) { got.set_value(r); });
  auto fut = got.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(fut.get().status, Status::Rejected);
}

// --- wire-transportable request kinds vs their references ------------------

TEST(SolveService, ChainRequestsMatchTheTextbookReference) {
  ServiceOptions so;
  so.workers = 2;
  SolveService svc(so);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Request r;
    r.payload = ChainSpec{40, seed};
    const Response resp = svc.submit(r).get();
    EXPECT_EQ(resp.status, Status::Ok);
    const auto ref =
        solve_matrix_chain_reference<float>(chain_dims(ChainSpec{40, seed}));
    EXPECT_FLOAT_EQ(float(resp.value), float(ref.cost)) << "seed " << seed;
  }
  svc.stop();
}

TEST(SolveService, BstRequestsMatchTheTextbookReference) {
  ServiceOptions so;
  so.workers = 2;
  SolveService svc(so);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Request r;
    r.payload = BstSpec{48, seed};
    const Response resp = svc.submit(r).get();
    EXPECT_EQ(resp.status, Status::Ok);
    const float ref = solve_optimal_bst_reference<float>(
        bst_data(BstSpec{48, seed}));
    EXPECT_NEAR(float(resp.value), ref, 1e-3f) << "seed " << seed;
  }
  svc.stop();
}

// --- effective backend name ------------------------------------------------

TEST(SolveService, ResponseNamesTheBackendThatActuallyRan) {
  resilience::breakers().clear();
  ServiceOptions so;
  so.workers = 1;
  so.resilience.breaker_enabled = true;
  so.resilience.fallback_backend = "reference";
  SolveService svc(so);
  // Healthy path: the configured default is reported.
  const Response ok = svc.submit(solve_request(96, 7)).get();
  EXPECT_EQ(ok.status, Status::Ok);
  EXPECT_EQ(ok.backend, so.backend);
  // Broken primary: the response must name the *fallback* that produced
  // the value, not the backend that was asked for — `npdp serve` and
  // bench-serve surface this as the effective backend.
  resilience::breakers().breaker(so.backend).force_open();
  const Response deg = svc.submit(solve_request(96, 8)).get();
  EXPECT_EQ(deg.status, Status::Degraded);
  EXPECT_EQ(deg.backend, "reference");
  svc.stop();
  resilience::breakers().clear();
}

}  // namespace
}  // namespace cellnpdp::serve

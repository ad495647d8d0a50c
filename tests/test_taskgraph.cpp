// Dependence graph and block scheduler tests. The central property: no
// task may run before its *full* dependence set (all (si,k) and (k,sj))
// has finished — locally or, with several owners, elsewhere.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "taskgraph/block_scheduler.hpp"
#include "taskgraph/dependence_graph.hpp"

namespace cellnpdp {
namespace {

class GraphShapeTest : public ::testing::TestWithParam<index_t> {};

TEST_P(GraphShapeTest, TaskIdAndCoordsAreInverse) {
  BlockDependenceGraph g(GetParam());
  index_t id = 0;
  for (index_t si = 0; si < g.grid_side(); ++si)
    for (index_t sj = si; sj < g.grid_side(); ++sj) {
      EXPECT_EQ(g.task_id(si, sj), id);
      const auto [ri, rj] = g.coords(id);
      EXPECT_EQ(ri, si);
      EXPECT_EQ(rj, sj);
      ++id;
    }
  EXPECT_EQ(g.task_count(), id);
}

TEST_P(GraphShapeTest, DependentsMirrorDependencyCounts) {
  BlockDependenceGraph g(GetParam());
  // Sum over all tasks of |dependents| must equal sum of dependency counts.
  index_t out_edges = 0, in_edges = 0;
  for (index_t id = 0; id < g.task_count(); ++id) {
    const auto [si, sj] = g.coords(id);
    out_edges += static_cast<index_t>(g.dependents(si, sj).size());
    in_edges += g.dependency_count(si, sj);
    // Diagonal tasks are the paper's initially-ready set.
    EXPECT_EQ(g.dependency_count(si, sj) == 0, si == sj);
  }
  EXPECT_EQ(out_edges, in_edges);
}

TEST_P(GraphShapeTest, SimplifiedEdgesAreSubsetOfFullDependencies) {
  BlockDependenceGraph g(GetParam());
  for (index_t id = 0; id < g.task_count(); ++id) {
    const auto [si, sj] = g.coords(id);
    const auto full = g.full_dependencies(si, sj);
    const std::set<std::pair<index_t, index_t>> full_set(full.begin(),
                                                         full.end());
    // The two nearest predecessors must be real dependencies.
    if (si != sj) {
      EXPECT_TRUE(full_set.count({si, sj - 1}));
      EXPECT_TRUE(full_set.count({si + 1, sj}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, GraphShapeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// --- BlockTracker ------------------------------------------------------------
// Two suites, one per way the tracker is used: ReadyTracker with one owner
// (every completion local), DistTracker with column-cyclic owners (inputs
// also finish on other peers and arrive in any order).

/// Finishes (si,sj) and returns the ids it released, in release order.
std::vector<index_t> finish_ids(BlockTracker& t, index_t si, index_t sj) {
  std::vector<index_t> out;
  t.finish(si, sj, [&](index_t id) { out.push_back(id); });
  return out;
}

TEST(ReadyTracker, InitialReadyIsExactlyTheDiagonal) {
  BlockTracker t(6);
  const auto ready = t.initial_ready();
  ASSERT_EQ(ready.size(), 6u);
  for (index_t id : ready) {
    const auto [si, sj] = t.graph().coords(id);
    EXPECT_EQ(si, sj);
  }
}

TEST(ReadyTracker, OffDiagonalNeedsExactlyTwoNotifications) {
  BlockTracker t(3);
  const BlockDependenceGraph& g = t.graph();
  // Completing (1,1) alone must not release (0,1) or (1,2).
  auto r = finish_ids(t, 1, 1);
  EXPECT_TRUE(r.empty());
  // (0,0) done releases (0,1): both its inputs have now finished.
  r = finish_ids(t, 0, 0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], g.task_id(0, 1));
  // (2,2) done releases (1,2).
  r = finish_ids(t, 2, 2);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], g.task_id(1, 2));
}

TEST(DistTracker, OwnershipIsBlockColumnCyclic) {
  BlockTracker t(5, /*owners=*/3, /*rank=*/1);
  for (index_t bj = 0; bj < 5; ++bj) EXPECT_EQ(t.owns(bj), bj % 3 == 1) << bj;
  EXPECT_EQ(t.owned_total(), 2 + 5);  // columns 1 and 4
  EXPECT_EQ(BlockTracker::owner_of(4, 3), 1u);
}

TEST(DistTracker, DiagonalBlocksAreInitiallyReady) {
  BlockTracker t(4, /*owners=*/2, /*rank=*/0);
  // Rank 0 owns columns 0 and 2; the owned diagonal blocks (0,0), (2,2)
  // have zero inputs and must be ready before anything is visible.
  const auto ready = t.initial_ready();
  ASSERT_EQ(ready.size(), 2u);
  for (const index_t id : ready) {
    const auto [bi, bj] = t.graph().coords(id);
    EXPECT_EQ(bi, bj);
    EXPECT_TRUE(t.owns(bj));
  }
}

TEST(DistTracker, FullInputSetGatesReadiness) {
  // (0,1) truly depends on (0,0) and (1,1): 2*(bj-bi) = 2 inputs. With
  // only one visible it must NOT fire, whichever input comes first.
  BlockTracker t(2, /*owners=*/2, /*rank=*/1);  // owns (0,1) and (1,1)
  EXPECT_EQ(t.initial_ready().size(), 1u);      // (1,1) only
  EXPECT_TRUE(finish_ids(t, 1, 1).empty());     // (0,1) still waits on (0,0)
  const auto ready = finish_ids(t, 0, 0);       // last input arrives
  ASSERT_EQ(ready.size(), 1u);
  const auto [bi, bj] = t.graph().coords(ready[0]);
  EXPECT_EQ(bi, 0);
  EXPECT_EQ(bj, 1);
}

TEST(DistTracker, DuplicateVisibilityIsIgnored) {
  BlockTracker t(3, /*owners=*/3, /*rank=*/0);
  EXPECT_TRUE(t.finish(1, 1, [](index_t) {}));  // first sighting retires
  bool released = false;
  EXPECT_FALSE(t.finish(1, 1, [&](index_t) { released = true; }));
  EXPECT_FALSE(released);
  EXPECT_EQ(t.finished(), 1);
}

TEST(DistTracker, AllVisibleAfterEveryBlock) {
  const index_t m = 4;
  BlockTracker t(m, /*owners=*/2, /*rank=*/0);
  // Every owned task becomes ready exactly once: initially or on release.
  std::set<index_t> ready;
  for (index_t id : t.initial_ready()) EXPECT_TRUE(ready.insert(id).second);
  for (index_t d = 0; d < m; ++d)           // antidiagonal order is one
    for (index_t bi = 0; bi + d < m; ++bi)  // valid completion order
      t.finish(bi, bi + d,
               [&](index_t id) { EXPECT_TRUE(ready.insert(id).second); });
  EXPECT_TRUE(t.all_finished());
  EXPECT_EQ(index_t(ready.size()), t.owned_total());
}

// --- the schedule property ---------------------------------------------

/// Shared visibility state of one property run, over memory blocks.
struct Visibility {
  explicit Visibility(index_t m)
      : graph(m), seen(static_cast<std::size_t>(graph.task_count()), 0) {}

  bool visible(index_t bi, index_t bj) const {
    return seen[static_cast<std::size_t>(graph.task_id(bi, bj))] != 0;
  }
  bool inputs_visible(index_t bi, index_t bj) const {
    for (const auto& [di, dj] : graph.full_dependencies(bi, bj))
      if (!visible(di, dj)) return false;
    return true;
  }

  BlockDependenceGraph graph;  ///< over memory blocks
  std::vector<std::uint8_t> seen;
  std::mutex mu;
};

struct PropertyCase {  // one field type: no padding in the printed name
  index_t workers;
  index_t owners;
  index_t sched_side;
};

class ScheduleProperty : public ::testing::TestWithParam<PropertyCase> {};

// Every combination of workers {1,2,4} x owners {1,3} x sched_side
// {1,2,3}, every rank: the owned tasks each run exactly once, every memory
// block of an owned task is relaxed only once its full input set is
// visible, and a second thread feeds the other owners' tasks to arrive()
// in a seeded random topological order — the shape of a distributed run.
TEST_P(ScheduleProperty, OwnedTasksRunOnceAfterTheirFullInputSet) {
  const auto workers = static_cast<std::size_t>(GetParam().workers);
  const auto owners = static_cast<std::uint32_t>(GetParam().owners);
  const index_t ss = GetParam().sched_side;
  const index_t m = 11;  // memory blocks per side
  const index_t side = ceil_div(m, ss);
  for (std::uint32_t rank = 0; rank < owners; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    BlockScheduler::Options o;
    o.side = side;
    o.workers = workers;
    o.owners = owners;
    o.rank = rank;
    BlockScheduler sched(o);
    const BlockDependenceGraph tasks(side);
    Visibility vis(m);
    std::vector<int> runs(static_cast<std::size_t>(tasks.task_count()), 0);
    std::vector<std::pair<index_t, index_t>> order;  // memory blocks

    // Calls fn(bi, bj) for each memory block of task (si,sj), in the
    // solve's walk order.
    auto for_blocks = [&](index_t si, index_t sj, auto&& fn) {
      const index_t col_hi = std::min(m, (sj + 1) * ss);
      const index_t row_hi = std::min(m, (si + 1) * ss);
      for (index_t bj = sj * ss; bj < col_hi; ++bj)
        for (index_t bi = std::min(bj, row_hi - 1); bi >= si * ss; --bi)
          fn(bi, bj);
    };

    std::thread feeder([&] {
      std::vector<index_t> pending;
      for (index_t id = 0; id < tasks.task_count(); ++id)
        if (BlockTracker::owner_of(tasks.coords(id).second, owners) != rank)
          pending.push_back(id);
      SplitMix64 rng(1000 * workers + 100 * owners + 10 * ss + rank);
      while (!pending.empty()) {
        std::vector<std::size_t> eligible;
        {
          std::lock_guard lk(vis.mu);
          for (std::size_t k = 0; k < pending.size(); ++k) {
            // Another owner ran the task once every input task was done.
            const auto [si, sj] = tasks.coords(pending[k]);
            bool ok = true;
            for (const auto& [di, dj] : tasks.full_dependencies(si, sj))
              for_blocks(di, dj, [&](index_t bi, index_t bj) {
                ok = ok && vis.visible(bi, bj);
              });
            if (ok) eligible.push_back(k);
          }
        }
        if (eligible.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        const std::size_t k = eligible[rng.next_below(eligible.size())];
        const auto [si, sj] = tasks.coords(pending[k]);
        {
          std::lock_guard lk(vis.mu);
          for_blocks(si, sj, [&](index_t bi, index_t bj) {
            vis.seen[static_cast<std::size_t>(vis.graph.task_id(bi, bj))] =
                1;
          });
        }
        EXPECT_TRUE(sched.arrive(si, sj));
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
      }
    });

    int ran = 0;
    ScheduleStats stats;
    const bool complete = sched.run(
        [&](index_t si, index_t sj, int& n) {
          EXPECT_EQ(BlockTracker::owner_of(sj, owners), rank);
          std::lock_guard lk(vis.mu);
          ++runs[static_cast<std::size_t>(tasks.task_id(si, sj))];
          for_blocks(si, sj, [&](index_t bi, index_t bj) {
            EXPECT_FALSE(vis.visible(bi, bj));
            EXPECT_TRUE(vis.inputs_visible(bi, bj))
                << "block (" << bi << "," << bj << ") ran early";
            vis.seen[static_cast<std::size_t>(vis.graph.task_id(bi, bj))] =
                1;
            order.emplace_back(bi, bj);
          });
          ++n;
          return true;
        },
        &ran, &stats);
    feeder.join();

    EXPECT_TRUE(complete);
    index_t owned = 0;
    for (index_t id = 0; id < tasks.task_count(); ++id) {
      const bool mine =
          BlockTracker::owner_of(tasks.coords(id).second, owners) == rank;
      owned += mine;
      EXPECT_EQ(runs[static_cast<std::size_t>(id)], mine ? 1 : 0);
    }
    EXPECT_EQ(ran, owned);
    EXPECT_EQ(stats.tasks, owned);
    EXPECT_EQ(sched.tracker().owned_total(), owned);

    if (workers == 1 && owners == 1 && ss == 1) {
      // The Fig. 4(b) walk: columns ascending, rows descending.
      std::vector<std::pair<index_t, index_t>> fig4b;
      for (index_t bj = 0; bj < m; ++bj)
        for (index_t bi = bj; bi >= 0; --bi) fig4b.emplace_back(bi, bj);
      EXPECT_EQ(order, fig4b);
    }
  }
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> out;
  for (index_t w : {1, 2, 4})
    for (index_t p : {1, 3})
      for (index_t ss : {1, 2, 3}) out.push_back({w, p, ss});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ScheduleProperty, ::testing::ValuesIn(property_cases()),
    [](const auto& info) {
      return "w" + std::to_string(info.param.workers) + "_p" +
             std::to_string(info.param.owners) + "_ss" +
             std::to_string(info.param.sched_side);
    });

// --- one owner -------------------------------------------------------------

class ScheduleValidityTest : public ::testing::TestWithParam<index_t> {};

TEST_P(ScheduleValidityTest, SerialOrderRespectsFullDependenceRelation) {
  BlockDependenceGraph g(GetParam());
  BlockScheduler::Options o;
  o.side = g.grid_side();
  BlockScheduler sched(o);
  std::vector<index_t> finish_pos(static_cast<std::size_t>(g.task_count()),
                                  -1);
  index_t pos = 0;
  int ran = 0;
  ASSERT_TRUE(sched.run(
      [&](index_t si, index_t sj, int& n) {
        finish_pos[static_cast<std::size_t>(g.task_id(si, sj))] = pos++;
        ++n;
        return true;
      },
      &ran));
  ASSERT_EQ(index_t(ran), g.task_count());

  for (index_t id = 0; id < g.task_count(); ++id) {
    const auto [si, sj] = g.coords(id);
    for (const auto& [di, dj] : g.full_dependencies(si, sj)) {
      EXPECT_LT(finish_pos[static_cast<std::size_t>(g.task_id(di, dj))],
                finish_pos[static_cast<std::size_t>(id)])
          << "(" << si << "," << sj << ") ran before its dependency (" << di
          << "," << dj << ")";
    }
  }
}

TEST_P(ScheduleValidityTest, ParallelRunRespectsFullDependenceRelation) {
  BlockDependenceGraph g(GetParam());
  BlockScheduler::Options o;
  o.side = g.grid_side();
  o.workers = 4;
  BlockScheduler sched(o);
  std::mutex mu;
  std::vector<bool> done(static_cast<std::size_t>(g.task_count()), false);
  int executed = 0;

  ASSERT_TRUE(sched.run(
      [&](index_t si, index_t sj, int& n) {
        {
          // At task *start*, the full dependence set must already be done.
          std::lock_guard lk(mu);
          for (const auto& [di, dj] : g.full_dependencies(si, sj))
            EXPECT_TRUE(done[static_cast<std::size_t>(g.task_id(di, dj))])
                << "(" << si << "," << sj << ") started before (" << di
                << "," << dj << ") finished";
        }
        ++n;
        std::lock_guard lk(mu);
        done[static_cast<std::size_t>(g.task_id(si, sj))] = true;
        return true;
      },
      &executed));
  EXPECT_EQ(executed, g.task_count());
}

INSTANTIATE_TEST_SUITE_P(Sides, ScheduleValidityTest,
                         ::testing::Values(1, 2, 4, 9, 16));

TEST(Executor, EveryTaskRunsExactlyOnceUnderManyThreads) {
  BlockDependenceGraph g(12);
  std::vector<std::atomic<int>> counts(
      static_cast<std::size_t>(g.task_count()));
  for (int rep = 0; rep < 5; ++rep) {
    for (auto& c : counts) c = 0;
    BlockScheduler::Options o;
    o.side = g.grid_side();
    o.workers = 8;
    BlockScheduler sched(o);
    int ran = 0;
    ASSERT_TRUE(sched.run(
        [&](index_t si, index_t sj, int& n) {
          ++counts[static_cast<std::size_t>(g.task_id(si, sj))];
          ++n;
          return true;
        },
        &ran));
    EXPECT_EQ(ran, g.task_count());
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

}  // namespace
}  // namespace cellnpdp

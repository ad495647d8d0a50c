// In-process library solves as the benchmark times them: one full solve
// (allocation, seeding and the solve itself) through solve_blocked_into at
// a given thread count, or through dist::solve_distributed_in_process
// across P peers, with spans around each layer call and the stats the
// library returns. Also the per-layer metrics derived from a set of such
// solves, and the L1-resident kernel rate they are compared against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/execution_context.hpp"
#include "core/instance.hpp"
#include "dist/dist_solver.hpp"
#include "layout/blocked.hpp"

namespace perfbench {

using Table = cellnpdp::BlockedTriangularMatrix<float>;

/// What one timed solve produced.
struct SolveRun {
  double seconds = 0;  ///< the whole call as a user sees it
  double alloc_s = 0;  ///< table construction (blocked drivers)
  double seed_s = 0;   ///< library call minus the solve's own wall time
  cellnpdp::SolveStats stats;              ///< blocked drivers
  std::vector<cellnpdp::dist::DistStats> ranks;  ///< distributed driver
  std::unique_ptr<Table> table;
};

/// The canonical seeded min-plus instance of size n (as `npdp solve`).
cellnpdp::NpdpInstance<float> seeded_instance(cellnpdp::index_t n,
                                              std::uint64_t seed);

/// One solve through solve_blocked_into at `threads` threads. `span` names
/// the outer span ("solve.nproc", "solve.1t").
SolveRun run_blocked(const cellnpdp::NpdpInstance<float>& inst,
                     cellnpdp::index_t block, std::size_t threads,
                     const char* span);

/// One solve across `peers` in-process ranks, mesh set-up included.
SolveRun run_dist(const cellnpdp::NpdpInstance<float>& inst,
                  cellnpdp::index_t block, std::uint32_t peers);

bool same_bytes(const Table& a, const Table& b);

/// Timed solves of one run, by driver.
struct SolveSamples {
  std::vector<SolveRun> nproc, one, dist;
};

/// Median seconds of a driver's solves.
std::vector<double> seconds_of(const std::vector<SolveRun>& runs);

/// Relaxation rate of the computing-block kernel on L1-resident tiles,
/// G relaxations per second (median of repeated timed batches).
double kernel_grelax_s(double seconds);

/// Appends the layout/core/taskgraph/dist layer metrics of `s`.
/// `kernel_rate` is kernel_grelax_s() of this run.
void add_solve_layers(const SolveSamples& s, std::size_t threads,
                      double kernel_rate, Outcome* out);

}  // namespace perfbench

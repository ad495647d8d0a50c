// In-process distributed solve: runs a whole P-peer group inside one
// process, each rank on its own thread with its own full-size matrix and
// its own PeerGroup over real loopback sockets. This is the harness the
// `distributed` backend, test_dist, and bench_dist share — the wire
// path, handshakes, checksums, and dependence tracking are exactly the
// multi-process ones; only process isolation is skipped (ctest's
// smoke_npdp_dist_plane covers the true multi-process form via
// `npdp dist-solve`).
//
// All listeners are bound (port 0 → ephemeral) before any peer thread
// starts, so every rank knows every port and the mesh comes up without
// retries.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dist/dist_solver.hpp"
#include "layout/blocked.hpp"

namespace cellnpdp::dist {

/// Solves `inst` across `peers` in-process ranks and returns rank 0's
/// assembled matrix (all ranks assemble identical bytes; tests check).
/// Per-rank stats land in *stats (resized to `peers`) when given.
/// Throws DistError if any rank fails.
template <class T>
BlockedTriangularMatrix<T> solve_distributed_in_process(
    const NpdpInstance<T>& inst, const DistOptions& opts, std::uint32_t peers,
    std::vector<DistStats>* stats = nullptr) {
  if (peers < 2) throw DistError("in-process solve needs >= 2 peers");
  std::vector<PeerEndpoint> endpoints(peers);
  std::vector<net::FdGuard> listeners(peers);
  std::string err;
  for (std::uint32_t r = 0; r < peers; ++r) {
    const int fd = net::tcp_listen("127.0.0.1", 0, &err);
    if (fd < 0) throw DistError("listen failed: " + err);
    listeners[r].reset(fd);
    endpoints[r].host = "127.0.0.1";
    endpoints[r].port = net::local_port(fd);
  }

  if (stats != nullptr) {
    stats->clear();
    stats->resize(peers);
  }
  std::vector<std::unique_ptr<BlockedTriangularMatrix<T>>> mats(peers);
  std::vector<std::string> errors(peers);
  std::vector<std::thread> threads;
  threads.reserve(peers);
  for (std::uint32_t r = 0; r < peers; ++r) {
    threads.emplace_back([&, r, lfd = std::move(listeners[r])]() mutable {
      try {
        mats[r] = std::make_unique<BlockedTriangularMatrix<T>>(
            inst.n, opts.tuning.block_side, semiring_zero<T>(inst.semiring));
        PeerGroup group(r, endpoints, opts.group);
        group.adopt_listener(lfd.release());
        solve_distributed_into(*mats[r], inst, group, opts,
                               stats != nullptr ? &(*stats)[r] : nullptr);
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t r = 0; r < peers; ++r)
    if (!errors[r].empty())
      throw DistError("rank " + std::to_string(r) + ": " + errors[r]);
  return std::move(*mats[0]);
}

/// Registers the `distributed` solver backend (an in-process 3-peer
/// coordinator) with the global BackendRegistry. Idempotent. Lives here —
/// called by main()s that link the dist library — because the backend
/// library cannot depend on dist (dist → net → serve → backend would
/// cycle).
void register_distributed_backend();

}  // namespace cellnpdp::dist

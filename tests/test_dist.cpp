// Distributed-solve tests: the peer mesh and the end-to-end guarantee the
// subsystem is built around — the matrix a peer group assembles over real
// loopback sockets is BYTE-identical to the tier-1 serial solve, for every
// semiring and instance mode. Also covers the failure contract (a peer dying
// mid-solve surfaces a DistError promptly on the survivors, never a
// hang or a silently partial matrix) and the cluster-sim oracle's
// communication-volume prediction against measured wire traffic.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "backend/solver_backend.hpp"
#include "cluster/cluster_sim.hpp"
#include "common/rng.hpp"
#include "core/solve.hpp"
#include "dist/in_process.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace cellnpdp {
namespace {

enum class Mode { Pure, Weighted, Separable };

constexpr SemiringId kAll[] = {SemiringId::MinPlus, SemiringId::MaxPlus,
                               SemiringId::Counting, SemiringId::ViterbiLog};

/// Same canonical (semiring, mode) workload test_semiring uses, so the
/// distributed results are checked on instances the engine suite already
/// pins down. Factor storage must outlive the instance.
template <class T>
NpdpInstance<T> make_instance(SemiringId sr, Mode mode, index_t n,
                              std::uint64_t seed, std::vector<T>* factors) {
  NpdpInstance<T> inst;
  inst.n = n;
  inst.semiring = sr;
  inst.init = [sr, seed](index_t i, index_t j) {
    return semiring_init_value<T>(sr, seed, i, j);
  };
  if (mode == Mode::Weighted) {
    inst.weight = [sr](index_t i, index_t j) {
      const index_t r = (i + 2 * j) % 3;
      switch (sr) {
        case SemiringId::Counting: return T(1 + r);
        case SemiringId::ViterbiLog: return T(-r);
        default: return T(r);
      }
    };
  } else if (mode == Mode::Separable) {
    factors->assign(static_cast<std::size_t>(3 * n), T(0));
    SplitMix64 rng(seed * 31 + 7);
    for (index_t i = 0; i < 3 * n; ++i)
      (*factors)[static_cast<std::size_t>(i)] =
          sr == SemiringId::Counting ? T(1 + rng.next_below(2))
                                     : T(rng.next_in(-2.0, 2.0));
    inst.ku = factors->data();
    inst.kv = factors->data() + n;
    inst.kw = factors->data() + 2 * n;
  }
  return inst;
}

/// Byte-level identity over the whole slab: received blocks are wire
/// copies and owned blocks are computed by the same engine, so even the
/// block padding must match the serial solve exactly.
template <class T>
void expect_bytes_identical(const BlockedTriangularMatrix<T>& ref,
                            const BlockedTriangularMatrix<T>& got,
                            const std::string& what) {
  ASSERT_EQ(ref.total_cells(), got.total_cells()) << what;
  EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                        static_cast<std::size_t>(ref.total_cells()) *
                            sizeof(T)),
            0)
      << what << ": assembled matrix differs from the single-process solve";
}

// --- End-to-end bit-identity ----------------------------------------------

TEST(DistSolve, ThreePeersMatchSerialForEverySemiringAndMode) {
  for (SemiringId sr : kAll) {
    for (Mode mode : {Mode::Pure, Mode::Weighted, Mode::Separable}) {
      std::vector<float> factors;
      const auto inst = make_instance<float>(sr, mode, 150, 11, &factors);
      dist::DistOptions opts;
      opts.tuning.block_side = 32;
      const auto ref = solve_blocked(inst, opts.tuning);
      const auto got = dist::solve_distributed_in_process(inst, opts, 3);
      expect_bytes_identical(ref, got,
                             std::string(semiring_name(sr)) + "/mode" +
                                 std::to_string(static_cast<int>(mode)));
    }
  }
}

TEST(DistSolve, PeerCountsTwoAndFourMatchSerial) {
  std::vector<float> factors;
  const auto inst =
      make_instance<float>(SemiringId::MinPlus, Mode::Pure, 200, 3, &factors);
  dist::DistOptions opts;
  opts.tuning.block_side = 32;
  const auto ref = solve_blocked(inst, opts.tuning);
  for (std::uint32_t peers : {2u, 4u}) {
    const auto got = dist::solve_distributed_in_process(inst, opts, peers);
    expect_bytes_identical(ref, got, std::to_string(peers) + " peers");
  }
}

TEST(DistSolve, MultiThreadedPeersStayBitIdentical) {
  std::vector<float> factors;
  const auto inst = make_instance<float>(SemiringId::ViterbiLog,
                                         Mode::Weighted, 180, 7, &factors);
  dist::DistOptions opts;
  opts.tuning.block_side = 32;
  const auto ref = solve_blocked(inst, opts.tuning);
  opts.tuning.threads = 2;  // per-peer compute workers
  const auto got = dist::solve_distributed_in_process(inst, opts, 3);
  expect_bytes_identical(ref, got, "2 compute threads per peer");
}

TEST(DistSolve, DoublePrecisionMatchesSerial) {
  std::vector<double> factors;
  const auto inst = make_instance<double>(SemiringId::MaxPlus,
                                          Mode::Separable, 130, 5, &factors);
  dist::DistOptions opts;
  opts.tuning.block_side = 32;
  const auto ref = solve_blocked(inst, opts.tuning);
  const auto got = dist::solve_distributed_in_process(inst, opts, 3);
  expect_bytes_identical(ref, got, "double");
}

// --- Stats, counters, and the cluster-sim oracle ---------------------------

TEST(DistSolve, StatsAccountForEveryBlockExactlyOnce) {
  std::vector<float> factors;
  const auto inst =
      make_instance<float>(SemiringId::MinPlus, Mode::Pure, 160, 9, &factors);
  dist::DistOptions opts;
  opts.tuning.block_side = 32;
  std::vector<dist::DistStats> stats;
  (void)dist::solve_distributed_in_process(inst, opts, 3, &stats);
  ASSERT_EQ(stats.size(), 3u);
  const index_t m = ceil_div(inst.n, opts.tuning.block_side);
  const index_t blocks = triangle_cells(m);
  index_t computed = 0;
  for (std::uint32_t r = 0; r < 3; ++r) {
    computed += stats[r].blocks_computed;
    EXPECT_EQ(stats[r].blocks_owned, stats[r].blocks_computed);
    // Every rank ends with the full picture: owned + received = all.
    EXPECT_EQ(stats[r].blocks_computed + stats[r].blocks_received, blocks);
    EXPECT_GT(stats[r].bytes_sent, 0u);
    EXPECT_GT(stats[r].bytes_received, 0u);
  }
  EXPECT_EQ(computed, blocks);
}

TEST(DistSolve, MeasuredCommBytesMatchClusterSimPrediction) {
  // The cluster simulator is the repo's comm-volume oracle: each block is
  // broadcast once to nodes-1 receivers. Measured wire bytes carry frame
  // headers and announces on top of the raw payload, so agreement within
  // 10% is the contract (it lands well under 1% for 16 KiB blocks).
  std::vector<float> factors;
  const auto inst = make_instance<float>(SemiringId::MinPlus, Mode::Pure, 256,
                                         13, &factors);
  for (std::uint32_t peers : {2u, 3u}) {
    ClusterConfig cfg;
    cfg.nodes = static_cast<int>(peers);
    cfg.cores_per_node = 1;
    ClusterSimOptions co;
    co.block_side = 64;
    const auto predicted = simulate_cluster_npdp(inst, cfg, co);

    dist::DistOptions opts;
    opts.tuning.block_side = 64;
    std::vector<dist::DistStats> stats;
    (void)dist::solve_distributed_in_process(inst, opts, peers, &stats);
    std::uint64_t measured = 0;
    for (const auto& s : stats) measured += s.bytes_sent;

    const double rel =
        std::abs(double(measured) - double(predicted.comm_bytes)) /
        double(predicted.comm_bytes);
    EXPECT_LT(rel, 0.10) << peers << " peers: predicted "
                         << predicted.comm_bytes << " measured " << measured;
  }
}

TEST(DistSolve, PeerCountersAreExported) {
  std::vector<float> factors;
  const auto inst =
      make_instance<float>(SemiringId::MinPlus, Mode::Pure, 96, 2, &factors);
  dist::DistOptions opts;
  opts.tuning.block_side = 32;
  const auto before = obs::metrics().snapshot();
  (void)dist::solve_distributed_in_process(inst, opts, 3);
  const auto after = obs::metrics().snapshot();
  EXPECT_GT(after.counter_or("net.peer.blocks_sent", 0),
            before.counter_or("net.peer.blocks_sent", 0));
  EXPECT_GT(after.counter_or("net.peer.blocks_received", 0),
            before.counter_or("net.peer.blocks_received", 0));
  EXPECT_GT(after.counter_or("net.peer.bytes_sent", 0),
            before.counter_or("net.peer.bytes_sent", 0));
  EXPECT_GT(after.counter_or("net.peer.bytes_received", 0),
            before.counter_or("net.peer.bytes_received", 0));
}

// --- The coordinator backend ----------------------------------------------

TEST(DistBackend, RegistersOnceAndMatchesSerial) {
  dist::register_distributed_backend();
  dist::register_distributed_backend();  // idempotent
  const backend::SolverBackend& be = backend::require_backend("distributed");
  EXPECT_TRUE(be.caps().parallel);
  EXPECT_TRUE(be.caps().weighted);

  NpdpInstance<float> inst;
  inst.n = 150;
  inst.init = [](index_t i, index_t j) {
    return semiring_init_value<float>(SemiringId::MinPlus, 21, i, j);
  };
  ExecutionContext ctx;
  ctx.tuning.block_side = 32;
  const backend::BackendResult r = be.solve(inst, ctx);
  ASSERT_EQ(r.status, SolveStatus::Ok);
  ASSERT_NE(r.blocked, nullptr);
  const auto ref = solve_blocked(inst, ctx.tuning);
  expect_bytes_identical(ref, *r.blocked, "distributed backend");
  EXPECT_EQ(r.value, ref.at(0, inst.n - 1));
}

// --- Failure contract ------------------------------------------------------

TEST(DistSolve, HandshakeRefusesMismatchedWorkloads) {
  // Two ranks whose config hashes differ must fail establishment, not
  // assemble garbage. Build the mesh by hand: two listeners, two threads.
  std::vector<dist::PeerEndpoint> eps(2);
  std::vector<net::FdGuard> lfds(2);
  std::string err;
  for (int r = 0; r < 2; ++r) {
    const int fd = net::tcp_listen("127.0.0.1", 0, &err);
    ASSERT_GE(fd, 0) << err;
    lfds[static_cast<std::size_t>(r)].reset(fd);
    eps[static_cast<std::size_t>(r)].port = net::local_port(fd);
  }
  auto hello = [](std::uint32_t rank, std::uint64_t hash) {
    dist::PeerHello h;
    h.rank = rank;
    h.nranks = 2;
    h.config_hash = hash;
    h.n = 64;
    h.block_side = 32;
    h.semiring = 0;
    h.elem_bytes = 4;
    return h;
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r, lfd = std::move(lfds[r])]() mutable {
      dist::PeerGroupOptions go;
      go.connect_timeout_ms = 5000;
      dist::PeerGroup g(r, eps, go);
      g.adopt_listener(lfd.release());
      try {
        g.establish(hello(r, /*hash=*/1000 + r));  // differing fingerprints
      } catch (const dist::DistError&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(failures.load(), 1);
}

TEST(DistSolve, PeerDyingMidSolveIsACleanErrorNotAHang) {
  // Rank 2 completes the handshake, then disappears without sending a
  // single block. Ranks 0 and 1 need its columns, so both must throw
  // DistError (peer death or stall) — promptly, with no assembled matrix
  // passed off as a success.
  std::vector<float> factors;
  const auto inst =
      make_instance<float>(SemiringId::MinPlus, Mode::Pure, 150, 4, &factors);
  std::vector<dist::PeerEndpoint> eps(3);
  std::vector<net::FdGuard> lfds(3);
  std::string err;
  for (int r = 0; r < 3; ++r) {
    const int fd = net::tcp_listen("127.0.0.1", 0, &err);
    ASSERT_GE(fd, 0) << err;
    lfds[static_cast<std::size_t>(r)].reset(fd);
    eps[static_cast<std::size_t>(r)].port = net::local_port(fd);
  }
  dist::DistOptions opts;
  opts.tuning.block_side = 32;
  opts.stall_timeout_ms = 10000;  // backstop; EOF should fire far sooner

  std::vector<std::string> failures(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r, lfd = std::move(lfds[r])]() mutable {
      BlockedTriangularMatrix<float> mat(inst.n, opts.tuning.block_side,
                                         semiring_zero<float>(inst.semiring));
      dist::PeerGroup group(r, eps, opts.group);
      group.adopt_listener(lfd.release());
      try {
        dist::solve_distributed_into(mat, inst, group, opts);
      } catch (const dist::DistError& e) {
        failures[r] = e.what();
      }
    });
  }
  // The deserting rank: a real handshake, then immediate shutdown.
  threads.emplace_back([&, lfd = std::move(lfds[2])]() mutable {
    dist::PeerHello h;
    h.rank = 2;
    h.nranks = 3;
    h.n = inst.n;
    h.block_side = opts.tuning.block_side;
    h.semiring = static_cast<std::uint8_t>(inst.semiring);
    h.elem_bytes = 4;
    dist::PeerGroup g(2, eps, opts.group);
    g.adopt_listener(lfd.release());
    g.establish(h);
    g.stop();  // closes both connections without a PeerDone
  });
  for (auto& t : threads) t.join();
  for (std::uint32_t r = 0; r < 2; ++r)
    EXPECT_FALSE(failures[r].empty())
        << "rank " << r << " reported success despite a dead peer";
}

TEST(DistSolve, NeedsAtLeastTwoPeers) {
  std::vector<float> factors;
  const auto inst =
      make_instance<float>(SemiringId::MinPlus, Mode::Pure, 64, 1, &factors);
  dist::DistOptions opts;
  EXPECT_THROW(dist::solve_distributed_in_process(inst, opts, 1),
               dist::DistError);
}

}  // namespace
}  // namespace cellnpdp

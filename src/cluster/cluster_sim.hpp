// Distributed-memory NPDP simulation — the paper's related-work category 2
// (§II-B: Almeida et al., Tan et al. [23] study NPDP on clusters where
// "the communication overhead cannot be neglected"). This tier lets the
// repository quantify exactly that: the same blocked algorithm, but memory
// blocks distributed block-column-cyclically over nodes, with every
// finished block broadcast to the other nodes over latency/bandwidth-
// modelled links.
//
// Each node is a multicore machine running the tier-1 block procedure (the
// same work model as the Cell/CPU engines); the discrete-event core and
// bandwidth-reservation models are shared with src/cellsim. Readiness is
// the rule cellsim, the host scheduler and the real peers (src/dist) run:
// each node has a BlockTracker and starts a block it owns once the
// block's full input set is visible on that node. A computed block
// finishes on its owner at once and on every other node when its
// broadcast lands, in one event per block; the run ends when the last
// block is visible everywhere, as a peer's solve does. Functional mode
// executes the real BlockEngine in simulated event order, so distributed
// runs are checkable bit-for-bit.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cellsim/event_queue.hpp"
#include "cellsim/memory_bus.hpp"
#include "cellsim/spu_pipeline.hpp"
#include "cellsim/work_model.hpp"
#include "core/engine.hpp"
#include "core/instance.hpp"
#include "taskgraph/block_scheduler.hpp"

namespace cellnpdp {

struct ClusterConfig {
  int nodes = 8;
  int cores_per_node = 8;           ///< blocks computed concurrently per node
  double clock_hz = 2.93e9;         ///< per-core clock
  double kernel_cycles_per_relax = 54.0 / 64.0;  ///< tier-1 SIMD rate
  double scalar_cycles_per_relax = 4.0;          ///< corner-pass rate
  double link_bandwidth = 3.0e9;    ///< bytes/s per node NIC
  double link_latency = 10e-6;      ///< per-message latency
  bool tree_broadcast = true;       ///< log2(P) pipelined vs P-1 sequential
};

struct ClusterSimOptions {
  index_t block_side = 64;
  bool functional = false;
};

struct ClusterSimResult {
  double seconds = 0.0;
  index_t comm_bytes = 0;
  index_t messages = 0;
  std::vector<double> node_busy;    ///< per-node compute seconds
  std::vector<double> node_comm;    ///< per-node NIC busy seconds
  double compute_seconds_total = 0.0;
  double comm_seconds_total = 0.0;  ///< sum of node_comm
  double efficiency = 0.0;          ///< total compute / (seconds * nodes)
  index_t blocks = 0;
};

/// Simulates the blocked NPDP across `cfg.nodes` nodes. Blocks are owned
/// by column: owner(bi,bj) = bj mod nodes. In Functional mode the solved
/// table is written to *out.
template <class T>
ClusterSimResult simulate_cluster_npdp(
    const NpdpInstance<T>& inst, const ClusterConfig& cfg,
    const ClusterSimOptions& opts,
    BlockedTriangularMatrix<T>* out = nullptr) {
  if (cfg.nodes < 1) throw std::invalid_argument("nodes must be >= 1");
  const index_t bs = opts.block_side;
  const index_t m = ceil_div(inst.n, bs);
  const index_t block_bytes = bs * bs * static_cast<index_t>(sizeof(T));
  const index_t w = sizeof(T) == 4 ? 4 : 2;

  std::unique_ptr<BlockedTriangularMatrix<T>> mat;
  std::unique_ptr<BlockEngine<T>> engine;
  if (opts.functional) {
    mat = std::make_unique<BlockedTriangularMatrix<T>>(inst.n, bs);
    NpdpOptions eopts;
    eopts.block_side = bs;
    engine = std::make_unique<BlockEngine<T>>(*mat, inst, eopts);
  }

  auto compute_seconds = [&](index_t bi, index_t bj) {
    const BlockWork bw = block_work(bi, bj, bs, w);
    const double cycles =
        double(bw.kernel_calls) * double(w * w * w) *
            cfg.kernel_cycles_per_relax +
        double(bw.scalar_relax) * cfg.scalar_cycles_per_relax;
    return cycles / cfg.clock_hz;
  };

  // Broadcast time occupying the sender's NIC, after which the block is
  // visible on every node.
  auto broadcast_seconds = [&]() {
    if (cfg.nodes == 1) return 0.0;
    if (cfg.tree_broadcast) {
      int hops = 0;
      for (int p = 1; p < cfg.nodes; p *= 2) ++hops;
      return cfg.link_latency * hops +
             double(block_bytes) / cfg.link_bandwidth;
    }
    return cfg.link_latency +
           double(block_bytes) * double(cfg.nodes - 1) / cfg.link_bandwidth;
  };

  EventQueue q;
  BlockDependenceGraph graph(m);
  std::vector<MemoryBus> nics;
  nics.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int p = 0; p < cfg.nodes; ++p)
    nics.emplace_back(cfg.link_bandwidth, cfg.link_latency);

  struct Node {
    BlockTracker tracker;
    int free_cores = 0;
    std::deque<index_t> ready;  // block ids ready to compute here
    double busy_seconds = 0.0;
  };
  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int p = 0; p < cfg.nodes; ++p) {
    BlockTracker t(m, static_cast<std::uint32_t>(cfg.nodes),
                   static_cast<std::uint32_t>(p));
    const std::vector<index_t> diag = t.initial_ready();
    nodes.push_back(
        {std::move(t), cfg.cores_per_node, {diag.begin(), diag.end()}, 0.0});
  }

  ClusterSimResult res;
  res.blocks = graph.task_count();

  std::function<void(int)> pump;

  // Block (bi,bj) became visible on node p.
  auto finish_on = [&](int p, index_t bi, index_t bj) {
    Node& nd = nodes[static_cast<std::size_t>(p)];
    nd.tracker.finish(bi, bj, [&](index_t id) { nd.ready.push_back(id); });
    pump(p);
  };

  pump = [&](int p) {
    Node& nd = nodes[static_cast<std::size_t>(p)];
    while (nd.free_cores > 0 && !nd.ready.empty()) {
      const index_t id = nd.ready.front();
      nd.ready.pop_front();
      --nd.free_cores;
      const auto [bi, bj] = graph.coords(id);
      const double cs = compute_seconds(bi, bj);
      q.after(cs, [&, p, bi, bj, cs] {
        Node& me = nodes[static_cast<std::size_t>(p)];
        me.busy_seconds += cs;
        ++me.free_cores;
        if (engine) engine->compute_block(bi, bj);
        // Broadcast to the other nodes; the block is visible locally now
        // and, in one event, on every other node when the NIC transfer
        // lands.
        if (cfg.nodes > 1) {
          const double done = nics[static_cast<std::size_t>(p)].transfer(
              q.now(), block_bytes * (cfg.nodes - 1), cfg.nodes - 1);
          res.comm_bytes += block_bytes * (cfg.nodes - 1);
          res.messages += static_cast<index_t>(cfg.nodes - 1);
          q.at(std::max(done, q.now() + broadcast_seconds()), [&, p, bi, bj] {
            for (int r = 0; r < cfg.nodes; ++r)
              if (r != p) finish_on(r, bi, bj);
          });
        }
        finish_on(p, bi, bj);
      });
    }
  };

  q.after(0.0, [&] {
    for (int p = 0; p < cfg.nodes; ++p) pump(p);
  });
  res.seconds = q.run();

  for (const auto& nd : nodes) {
    res.node_busy.push_back(nd.busy_seconds);
    res.compute_seconds_total += nd.busy_seconds;
  }
  for (const auto& nic : nics) {
    res.node_comm.push_back(nic.stats().busy_seconds);
    res.comm_seconds_total += nic.stats().busy_seconds;
  }
  if (res.seconds > 0)
    res.efficiency =
        res.compute_seconds_total /
        (res.seconds * double(cfg.nodes) * double(cfg.cores_per_node));

  if (out != nullptr && mat != nullptr) *out = std::move(*mat);
  return res;
}

}  // namespace cellnpdp

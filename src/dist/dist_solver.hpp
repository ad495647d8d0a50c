// The distributed blocked solve: every peer runs this same driver over
// its own full-size BlockedTriangularMatrix, computes the block columns
// it owns (bj mod P == rank, matching cluster_sim's placement), and
// broadcasts each finished block to every other peer as one BlockData
// frame. A received block is checked (inside the triangle, sent by its
// column's owner, FNV-1a over the received bytes, not seen before) and
// memcpy'd into the local slab, so every peer ends the solve holding the
// complete assembled matrix — bit-identical to the single-process solve,
// because an owned block is only relaxed once its full input set is final
// and remote blocks are exact byte copies of the bytes their owner
// computed. A peer seeds only the blocks it owns, each as the first step
// of computing it, so its workers and its receivers never write the same
// slab region and no seeding pass has to finish before receiving starts.
//
// The schedule is the one block scheduler (taskgraph/block_scheduler.hpp)
// with memory-block tasks and column-cyclic ownership: receivers hand
// each verified block to BlockScheduler::arrive, which releases an owned
// block the moment its last input (local or remote) lands — no
// antidiagonal barrier, so a peer's compute overlaps other peers'
// compute and the wire transfer of finished blocks. tuning.threads
// workers (the calling thread is worker 0) run the per-block step, whose
// on-finished hook broadcasts the block (PeerGroup sends are
// per-connection serialised). PeerDone follows once every block is
// visible, so it comes after the last owned block everywhere.
//
// Failure: a peer dying mid-solve surfaces as a receiver error or a send
// failure, which fails the scheduler run, and the solve throws DistError
// promptly — never a hang and never a partial matrix reported as
// success. A rank with no owned block ready or running and no arrival
// for stall_timeout_ms throws too. Recovery is restart-and-resolve:
// instances are regenerated deterministically from the seed, so
// rerunning the whole group reproduces the identical result
// (docs/distributed.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/engine.hpp"
#include "core/execution_context.hpp"
#include "core/instance.hpp"
#include "core/solve.hpp"
#include "dist/peer_group.hpp"
#include "dist/peer_wire.hpp"
#include "layout/blocked.hpp"
#include "layout/checksum.hpp"
#include "obs/metrics.hpp"
#include "taskgraph/block_scheduler.hpp"

namespace cellnpdp::dist {

struct DistOptions {
  NpdpOptions tuning;            ///< block side, kernel, compute threads
  PeerGroupOptions group;        ///< connect deadline, frame-size cap
  /// Fingerprint of whatever the explicit hello fields cannot express
  /// (workload seed, instance mode); peers must agree or the handshake
  /// fails.
  std::uint64_t config_hash = 0;
  /// No owned block ready or running and no arrival for this long aborts
  /// the solve — a wedged peer must become an error, not a hang.
  int stall_timeout_ms = 60000;
};

/// Telemetry of one peer's side of a distributed solve.
struct DistStats {
  index_t blocks_owned = 0;
  index_t blocks_computed = 0;
  index_t blocks_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  double wall_seconds = 0;
  double stall_seconds = 0;  ///< no owned block ready or running
};

namespace detail {

/// The per-(T,S) driver. One instance lives on the stack of one peer's
/// solve call; receiver threads only touch it through the scheduler, the
/// PeerDone count, and the matrix slab regions they exclusively own.
template <class S, class T>
class PeerSolveRun {
 public:
  PeerSolveRun(BlockedTriangularMatrix<T>& mat, const NpdpInstance<T>& inst,
               PeerGroup& group, const DistOptions& opts, DistStats* stats)
      : mat_(mat),
        inst_(inst),
        group_(group),
        opts_(opts),
        stats_(stats),
        engine_(mat, inst, opts.tuning),
        sched_(plan(mat.blocks_per_side(), group, opts)),
        received_(static_cast<std::size_t>(
            sched_.tracker().graph().task_count())) {}

  SolveStatus run() {
    Stopwatch sw;
    SolveStats ss;
    // On ANY exit — error included — receivers must be joined before this
    // object unwinds: their handler lambdas point into it.
    try {
      start();
      solve(&ss);
      PeerDone d;
      d.rank = group_.rank();
      d.blocks_computed = static_cast<std::uint32_t>(ss.tasks);
      d.bytes_sent = group_.bytes_sent();
      group_.send_to_all(encode_peer_done(group_.rank(), d));
      await_peers();
    } catch (...) {
      group_.stop();
      throw;
    }
    group_.stop();
    if (stats_ != nullptr) {
      const BlockTracker& t = sched_.tracker();
      stats_->blocks_owned = t.owned_total();
      stats_->blocks_computed = ss.tasks;
      stats_->blocks_received = t.graph().task_count() - t.owned_total();
      stats_->bytes_sent = group_.bytes_sent();
      stats_->bytes_received = group_.bytes_received();
      stats_->messages_sent = group_.messages_sent();
      stats_->stall_seconds = ss.stall_seconds;
      stats_->wall_seconds = sw.seconds();
    }
    return SolveStatus::Ok;
  }

 private:
  static BlockScheduler::Options plan(index_t m, const PeerGroup& group,
                                      const DistOptions& opts) {
    BlockScheduler::Options o;
    o.side = m;
    o.workers = opts.tuning.threads;
    o.owners = group.nranks();
    o.rank = group.rank();
    o.stall_timeout = std::chrono::milliseconds(opts.stall_timeout_ms);
    return o;
  }

  void start() {
    PeerHello hello;
    hello.rank = group_.rank();
    hello.nranks = group_.nranks();
    hello.config_hash = opts_.config_hash;
    hello.n = inst_.n;
    hello.block_side = opts_.tuning.block_side;
    hello.semiring = static_cast<std::uint8_t>(inst_.semiring);
    hello.elem_bytes = static_cast<std::uint8_t>(sizeof(T));
    group_.establish(hello);
    group_.start_receiving(
        [this](std::uint32_t src, const net::FrameHeader& h,
               const std::uint8_t* payload, std::size_t len) {
          on_frame(src, h, payload, len);
        },
        [this](std::uint32_t src, const std::string& what) {
          abort("peer " + std::to_string(src) + ": " + what);
        });
  }

  /// Computes every owned block (broadcasting each) until every block of
  /// the triangle is visible here.
  void solve(SolveStats* ss) {
    ExecutionContext ctx;
    ctx.tuning = opts_.tuning;
    ctx.stats = ss;
    try {
      cellnpdp::detail::run_blocks(
          sched_, engine_, mat_, ctx, /*sched_side=*/1, /*checksums=*/false,
          [this](index_t bi, index_t bj) { broadcast(bi, bj); });
    } catch (const ScheduleStalled& e) {
      throw DistError("rank " + std::to_string(group_.rank()) +
                      " stalled: " + e.what());
    }
    obs::metrics().counter("net.peer.stall_ns").add(
        static_cast<std::int64_t>(ss->stall_seconds * 1e9));
  }

  /// Waits for every other rank's PeerDone, under the stall timeout.
  void await_peers() {
    std::unique_lock<std::mutex> lock(mu_);
    const bool settled = cv_.wait_for(
        lock, std::chrono::milliseconds(opts_.stall_timeout_ms), [this] {
          return !error_.empty() || done_peers_ == group_.nranks() - 1;
        });
    if (!error_.empty()) throw DistError(error_);
    if (!settled)
      throw DistError("rank " + std::to_string(group_.rank()) +
                      " stalled: PeerDone from " +
                      std::to_string(done_peers_) + "/" +
                      std::to_string(group_.nranks() - 1) + " peers after " +
                      std::to_string(opts_.stall_timeout_ms) + " ms");
  }

  /// Receiver-side failure: fails the scheduler run (or the PeerDone wait).
  void abort(const std::string& what) {
    sched_.fail(std::make_exception_ptr(DistError(what)));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error_.empty()) error_ = what;
    }
    cv_.notify_all();
  }

  /// The on-finished hook: broadcasts a block this rank just computed.
  void broadcast(index_t bi, index_t bj) {
    const T* blk = mat_.block(bi, bj);
    const auto bytes = static_cast<std::size_t>(mat_.block_bytes());
    const std::uint64_t sum = fnv1a(blk, bytes);
    const auto id =
        static_cast<std::uint64_t>(sched_.tracker().graph().task_id(bi, bj));
    group_.send_to_all(encode_block_data(id, static_cast<std::uint32_t>(bi),
                                         static_cast<std::uint32_t>(bj), sum,
                                         blk, bytes));
    obs::metrics()
        .counter("net.peer.blocks_sent")
        .add(static_cast<std::int64_t>(group_.nranks() - 1));
  }

  /// Receiver-thread frame handler. Throwing aborts the connection and
  /// fails the solve (PeerGroup routes the exception through on_error).
  void on_frame(std::uint32_t src, const net::FrameHeader& h,
                const std::uint8_t* payload, std::size_t len) {
    std::string err;
    switch (h.type) {
      case net::MsgType::BlockData: {
        BlockDataView v;
        if (!decode_block_data(h.version, payload, len,
                               static_cast<std::size_t>(mat_.block_bytes()),
                               &v, &err))
          throw DistError("bad BlockData: " + err);
        validate_remote_coords(src, v.bi, v.bj);
        const index_t id = sched_.tracker().graph().task_id(v.bi, v.bj);
        if (fnv1a(v.data, v.len) != v.checksum)
          throw DistError("BlockData for (" + std::to_string(v.bi) + "," +
                          std::to_string(v.bj) + ") failed its checksum");
        if (received_[static_cast<std::size_t>(id)].exchange(
                1, std::memory_order_acq_rel) != 0)
          throw DistError("duplicate BlockData for (" + std::to_string(v.bi) +
                          "," + std::to_string(v.bj) + ")");
        std::memcpy(mat_.block(static_cast<index_t>(v.bi),
                               static_cast<index_t>(v.bj)),
                    v.data, v.len);
        obs::metrics().counter("net.peer.blocks_received").add();
        obs::metrics()
            .counter("net.peer.blocks_received{peer=" + std::to_string(src) +
                     "}")
            .add();
        sched_.arrive(static_cast<index_t>(v.bi), static_cast<index_t>(v.bj));
        return;
      }
      case net::MsgType::PeerDone: {
        PeerDone d;
        if (!decode_peer_done(h.version, payload, len, &d, &err))
          throw DistError("bad PeerDone: " + err);
        if (d.rank != src)
          throw DistError("PeerDone rank " + std::to_string(d.rank) +
                          " from connection of rank " + std::to_string(src));
        // PeerDone is the last frame a peer sends; from here an EOF on
        // this connection is that peer shutting down normally, not dying.
        group_.mark_finished(src);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++done_peers_;
        }
        cv_.notify_all();
        return;
      }
      default:
        throw DistError("unexpected frame type " +
                        std::to_string(static_cast<int>(h.type)) +
                        " on an established peer connection");
    }
  }

  void validate_remote_coords(std::uint32_t src, std::uint32_t bi,
                              std::uint32_t bj) {
    const auto m = static_cast<std::uint32_t>(mat_.blocks_per_side());
    if (bj >= m || bi > bj)
      throw DistError("block (" + std::to_string(bi) + "," +
                      std::to_string(bj) + ") outside the triangle");
    if (BlockTracker::owner_of(static_cast<index_t>(bj), group_.nranks()) !=
        src)
      throw DistError("peer " + std::to_string(src) +
                      " sent block (" + std::to_string(bi) + "," +
                      std::to_string(bj) + ") it does not own");
  }

  BlockedTriangularMatrix<T>& mat_;
  const NpdpInstance<T>& inst_;
  PeerGroup& group_;
  const DistOptions& opts_;
  DistStats* stats_;
  BlockEngine<T, S> engine_;
  BlockScheduler sched_;

  // Receiver-side state: the cross-thread dedup guard (atomic per block).
  std::vector<std::atomic<std::uint8_t>> received_;

  // PeerDone count and the first receiver error, for await_peers().
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t done_peers_ = 0;
  std::string error_;
};

}  // namespace detail

/// One peer's share of a distributed solve. `mat` must match the
/// instance/tuning geometry and have the semiring zero as its pad(); its
/// cells may hold anything, since every block is either computed here
/// (which seeds it first) or copied in from its owner. On return it holds
/// the COMPLETE assembled matrix. Throws DistError on any peer failure;
/// never hangs past the stall timeout.
template <class T>
SolveStatus solve_distributed_into(BlockedTriangularMatrix<T>& mat,
                                   const NpdpInstance<T>& inst,
                                   PeerGroup& group, const DistOptions& opts,
                                   DistStats* stats = nullptr) {
  return with_semiring<T>(inst.semiring, [&](auto s) {
    detail::PeerSolveRun<decltype(s), T> run(mat, inst, group, opts, stats);
    return run.run();
  });
}

}  // namespace cellnpdp::dist

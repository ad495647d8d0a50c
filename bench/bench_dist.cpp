// Distributed solve: predicted vs measured. The same instance runs twice
// per peer count — once through the cluster simulator (the repo's
// discrete-event comm/compute model, cores_per_node=1 to mirror one
// compute thread per peer) and once through a REAL peer group over
// loopback sockets (src/dist, in-process ranks, full wire path). The
// table prints the two columns side by side, and every measured run is
// checked byte-identical against the tier-1 serial solve before its
// numbers are reported — a wrong answer must never become a data point.
//
// Loopback wall time is not the simulator's target (the model prices an
// IB-like network, not the kernel's localhost), so the load-bearing
// comparison is communication VOLUME: measured wire bytes must land
// within 10% of the simulator's broadcast prediction.
#include <cstdio>
#include <cstring>

#include "bench_util/bench_config.hpp"
#include "bench_util/json_out.hpp"
#include "bench_util/table.hpp"
#include "cluster/cluster_sim.hpp"
#include "common/stopwatch.hpp"
#include "core/solve.hpp"
#include "dist/in_process.hpp"

namespace cellnpdp {
namespace {

void run(const BenchConfig& cfg, BenchJson& json) {
  const index_t n = cfg.full ? 4096 : 1024;
  const index_t bs = 64;
  NpdpInstance<float> inst;
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    return semiring_init_value<float>(SemiringId::MinPlus, 42, i, j);
  };

  NpdpOptions tuning;
  tuning.block_side = bs;
  const auto ref = solve_blocked(inst, tuning);

  std::printf("\nn=%lld, block %lld, loopback peers vs cluster model:\n",
              static_cast<long long>(n), static_cast<long long>(bs));
  TextTable t({"peers", "pred time", "meas time", "pred comm", "meas comm",
               "comm err", "stall", "identical"});
  for (const int peers : {2, 3, 4}) {
    ClusterConfig cc;
    cc.nodes = peers;
    cc.cores_per_node = 1;  // one compute thread per peer
    ClusterSimOptions co;
    co.block_side = bs;
    const auto pred = simulate_cluster_npdp(inst, cc, co);

    dist::DistOptions opts;
    opts.tuning = tuning;
    std::vector<dist::DistStats> stats;
    Stopwatch sw;
    const auto got = dist::solve_distributed_in_process(
        inst, opts, static_cast<std::uint32_t>(peers), &stats);
    const double meas_s = sw.seconds();

    const bool identical =
        got.total_cells() == ref.total_cells() &&
        std::memcmp(got.data(), ref.data(),
                    static_cast<std::size_t>(ref.total_cells()) *
                        sizeof(float)) == 0;
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: %d-peer result differs from the single-process "
                   "solve\n",
                   peers);
      std::exit(1);
    }

    std::uint64_t meas_bytes = 0;
    double stall_s = 0, meas_wall_max = 0;
    for (const auto& s : stats) {
      meas_bytes += s.bytes_sent;
      stall_s += s.stall_seconds;
      meas_wall_max = std::max(meas_wall_max, s.wall_seconds);
    }
    const double comm_err =
        pred.comm_bytes > 0
            ? double(meas_bytes) / double(pred.comm_bytes) - 1.0
            : 0.0;

    t.row(peers, fmt_seconds(pred.seconds), fmt_seconds(meas_s),
          fmt_bytes(double(pred.comm_bytes)), fmt_bytes(double(meas_bytes)),
          fmt_pct(comm_err), fmt_seconds(stall_s), identical ? "yes" : "NO");
    json.record()
        .set("peers", peers)
        .set("n", n)
        .set("block_side", bs)
        .set("predicted_seconds", pred.seconds)
        .set("predicted_comm_bytes",
             static_cast<std::int64_t>(pred.comm_bytes))
        .set("predicted_comm_seconds", pred.comm_seconds_total)
        .set("predicted_efficiency", pred.efficiency)
        .set("measured_seconds", meas_s)
        .set("measured_peer_wall_seconds", meas_wall_max)
        .set("measured_comm_bytes", static_cast<std::int64_t>(meas_bytes))
        .set("measured_stall_seconds", stall_s)
        .set("comm_bytes_rel_err", comm_err)
        .set("bit_identical", identical);
  }
  t.print();
  std::printf(
      "\n(predicted columns price an IB-like network in the discrete-event "
      "model; measured columns are real frames over loopback TCP — the "
      "columns to compare are the comm volumes, which must agree within "
      "10%%)\n");
}

}  // namespace
}  // namespace cellnpdp

int main(int argc, char** argv) {
  using namespace cellnpdp;
  const auto cfg = BenchConfig::from_args(argc, argv);
  print_bench_header("Distributed solve: peers vs cluster model", cfg);
  BenchJson json("dist", cfg);
  run(cfg, json);
  return 0;
}

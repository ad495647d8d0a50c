// npdp_perfbench: the repository benchmark. Runs one workload for a fixed
// time, checks every output, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace 1). The line before it carries provenance and the quartiles of
// every metric. Exit status is 0 only when every output was correct.
//
//   npdp_perfbench --workload bulk-solve|serve-miss|serve-hit --seed N
//                  --seconds S --trace 0|1 [--smoke] [--spans FILE]
//                  [--expected FILE] [--git-sha SHA] [--git-dirty 0|1]
//   npdp_perfbench --record-expected FIRST LAST [--n N]
//       prints "n seed d[0][n-1]" lines from the scalar golden model
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/cpu_features.hpp"
#include "common/json.hpp"
#include "core/reference.hpp"
#include "solves.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "npdp_perfbench: %s\nusage: npdp_perfbench --workload "
               "bulk-solve|serve-miss|serve-hit --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans FILE] [--expected FILE]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// A JSON number with every digit; non-finite values cannot be written in
/// JSON and are reported as 0.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void str(std::ostream& os, const std::string& s) { cellnpdp::json_escape(os, s); }

int record_expected(std::uint64_t first, std::uint64_t last, long n) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const auto inst = seeded_instance(n, seed);
    std::printf("%ld %llu %a\n", n, static_cast<unsigned long long>(seed),
                double(cellnpdp::solve_reference(inst).at(0, n - 1)));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string git_sha = "unknown", trace_arg;
  bool git_dirty = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--record-expected" && i + 2 < argc) {
      long n = 2048;
      if (i + 4 < argc && std::strcmp(argv[i + 3], "--n") == 0)
        n = std::atol(argv[i + 4]);
      return record_expected(std::strtoull(argv[i + 1], nullptr, 10),
                             std::strtoull(argv[i + 2], nullptr, 10), n);
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(argv[++i]);
      have_seconds = o.seconds > 0;
    } else if (a == "--trace") {
      trace_arg = argv[++i];
      o.trace = trace_arg == "1";
    } else if (a == "--spans") {
      o.spans_path = argv[++i];
    } else if (a == "--expected") {
      o.expected_path = argv[++i];
    } else if (a == "--git-sha") {
      git_sha = argv[++i];
    } else if (a == "--git-dirty") {
      git_dirty = std::strcmp(argv[++i], "1") == 0;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds) return usage("--seed and --seconds needed");
  if (trace_arg != "0" && trace_arg != "1") return usage("--trace is 0 or 1");

  if (o.workload != "bulk-solve" && o.workload != "serve-miss" &&
      o.workload != "serve-hit")
    return usage(("unknown workload '" + o.workload + "'").c_str());
  Outcome out;
  try {
    if (o.workload == "bulk-solve")
      run_bulk(o, &out);
    else
      run_serve(o, o.workload == "serve-hit", &out);
  } catch (const std::exception& e) {  // e.g. DistError from a failed mesh
    ++out.attempted;
    out.fail(std::string("aborted: ") + e.what());
  }
  if (o.trace)
    out.add(scalar("fail_frac", "frac",
                   out.attempted > 0
                       ? double(out.failed) / double(out.attempted)
                       : 1.0));
  if (o.trace && !o.spans_path.empty() && !spans().write(o.spans_path))
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 o.spans_path.c_str());
  const bool correct = out.failed == 0 && out.attempted > 0;

  std::printf("workload %s  seed %llu  %s run of %g s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced", o.seconds);
  for (const Metric& m : out.metrics)
    std::printf("  %-26s %14.6g %-9s (median %.6g, q1 %.6g, q3 %.6g, n=%zu)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.median, m.q1, m.q3,
                m.reps);
  std::printf("  %llu operations, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const std::string& why : out.mismatches)
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());

  std::ostringstream prov;
  prov << "{\"provenance\": {\"git_sha\": ";
  str(prov, git_sha);
  prov << ", \"git_dirty\": " << (git_dirty ? "true" : "false")
       << ", \"cpu\": ";
  str(prov, cpu_model());
  prov << ", \"isa\": ";
  str(prov, cellnpdp::cpu_features_string());
  prov << ", \"compiler\": ";
  str(prov, PERFBENCH_COMPILER);
  prov << ", \"flags\": ";
  str(prov, PERFBENCH_FLAGS);
  prov << ", \"nproc\": " << hardware_threads() << ", \"workload\": ";
  str(prov, o.workload);
  prov << ", \"seed\": " << o.seed << ", \"seconds\": " << num(o.seconds)
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"smoke\": " << (o.smoke ? "true" : "false") << "}, \"detail\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    prov << (i == 0 ? "" : ", ");
    str(prov, m.name);
    prov << ": {\"value\": " << num(m.value) << ", \"median\": "
         << num(m.median) << ", \"q1\": " << num(m.q1)
         << ", \"q3\": " << num(m.q3) << ", \"reps\": " << m.reps
         << ", \"unit\": ";
    str(prov, m.unit);
    prov << "}";
  }
  prov << "}}";
  std::printf("%s\n", prov.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    res << (i == 0 ? "" : ", ");
    str(res, m.name);
    res << ": {\"value\": " << num(m.value) << ", \"unit\": ";
    str(res, m.unit);
    res << "}";
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Shared pieces of the repository benchmark: run options, the metric and
// outcome records every workload fills, order statistics, and the
// in-memory span log the traced run records around each layer call.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< measured time of one run
  bool trace = false;    ///< per-layer run (spans on) instead of end-to-end
  bool smoke = false;    ///< tiny sizes: every workload in a few seconds
  std::string spans_path;     ///< traced run: Chrome-trace JSON of the spans
  std::string expected_path;  ///< recorded bulk-solve answers per seed
};

/// One reported metric: the value the result line carries (an order
/// statistic of the run's repetitions, the median unless the metric says
/// otherwise) plus the median, quartiles and repetition count.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t reps = 1;
};

/// Everything one run reports. A failed operation is anything that was
/// refused, timed out, errored, or returned a wrong answer.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;  ///< first few failures, for the log
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    ++failed;
    if (mismatches.size() < 8) mismatches.push_back(why);
  }
  void add(Metric m) { metrics.push_back(std::move(m)); }
};

std::int64_t now_ns();

/// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Quartiles of `samples`, reporting their q-quantile as the value.
Metric summarize(std::string name, std::string unit,
                 const std::vector<double>& samples, double q = 0.5);

/// The quantile reported for the solve times a shared host disturbs most:
/// the fastest solve of the run. Other tenants only ever slow a solve down,
/// a single thread by 30-50% for stretches of seconds; the fastest solve
/// tracks the program, not its neighbours. Used for 1-thread solves, and
/// for the serve workloads' n = 48 nproc solves, which are mostly thread
/// start-up and number in the thousands. A long multi-threaded solve waits
/// for its slowest thread, so its fastest solves are rare outliers, and
/// bulk-solve reports its median.
constexpr double kFastest = 0.0;

/// The quantile over time slices reported for a tail latency. Host stalls
/// of 1-10 ms, a few per run, set the tail of every slice they touch; the
/// first quartile over slices is the tail of the quieter stretches.
constexpr double kQuietQuarter = 0.25;

/// A metric that is one number per run (a count or a ratio of totals).
Metric scalar(std::string name, std::string unit, double value);

/// values[i], taken at time at[i], grouped by the slice of [t0, t1) it
/// falls in; values outside the interval are dropped. A rate or percentile
/// is taken per slice and the run reports an order statistic over slices,
/// so a stall in one slice (a noisy neighbour on a shared host) moves one
/// value, not the result. The phase is cut into one slice per 1000 values
/// (so each slice's p99 has ten values beyond it), 5 to 40 slices.
std::vector<std::vector<double>> by_window(const std::vector<std::int64_t>& at,
                                           const std::vector<double>& values,
                                           std::int64_t t0, std::int64_t t1);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// A recorded interval. Spans of one request share `req`; `parent` is the
/// id of the span that caused this one (0 = root).
struct Span {
  const char* name = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
};

/// Spans kept in memory while tracing is on and written out when the run
/// ends. Recording is a no-op (returning id 0) while tracing is off, so the
/// same code serves the untraced and the traced passes.
class SpanLog {
 public:
  void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  std::uint64_t record(const char* name, std::int64_t t0, std::int64_t t1,
                       std::uint64_t parent = 0, std::uint64_t req = 0);

  /// Durations, in milliseconds, of every span with this name.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Chrome trace-event JSON (open in ui.perfetto.dev). False on I/O error.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

SpanLog& spans();

int hardware_threads();

void run_bulk(const RunOptions& opts, Outcome* out);
void run_serve(const RunOptions& opts, bool hit, Outcome* out);

/// The serve/net/router/load layer metrics, all 0, for a workload that
/// never enters those layers.
void add_serving_zeros(Outcome* out);

}  // namespace perfbench

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - double(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

Metric summarize(std::string name, std::string unit,
                 const std::vector<double>& samples, double q) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = quantile(samples, q);
  m.median = median(samples);
  m.q1 = quantile(samples, 0.25);
  m.q3 = quantile(samples, 0.75);
  m.reps = samples.size();
  return m;
}

Metric scalar(std::string name, std::string unit, double value) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = m.median = m.q1 = m.q3 = value;
  return m;
}

std::vector<std::vector<double>> by_window(const std::vector<std::int64_t>& at,
                                           const std::vector<double>& values,
                                           std::int64_t t0, std::int64_t t1) {
  const auto n = std::clamp<std::size_t>(values.size() / 1000, 5, 40);
  std::vector<std::vector<double>> w(n);
  const double len = double(t1 - t0) / double(n);
  for (std::size_t i = 0; i < at.size(); ++i) {
    const double pos = double(at[i] - t0) / len;
    if (pos >= 0 && pos < double(n))
      w[static_cast<std::size_t>(pos)].push_back(values[i]);
  }
  return w;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t SpanLog::record(const char* name, std::int64_t t0,
                              std::int64_t t1, std::uint64_t parent,
                              std::uint64_t req) {
  if (!enabled()) return 0;
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lk(mu_);
  spans_.push_back(Span{name, t0, t1, id, parent, req});
  return id;
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  std::lock_guard lk(mu_);
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(double(s.t1 - s.t0) * 1e-6);
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lk(mu_);
  std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) base = std::min(base, s.t0);
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"req\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.req),
                 double(s.t0 - base) * 1e-3, double(s.t1 - s.t0) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

}  // namespace perfbench

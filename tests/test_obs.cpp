// Observability layer: tracer span semantics, Chrome-trace JSON
// well-formedness, metrics registry under concurrency, and end-to-end
// consistency of a traced parallel solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/solve.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/request_log.hpp"
#include "obs/span_context.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace cellnpdp {
namespace {

using obs::Tracer;

// Collapses a snapshot into one event list (tests below run either on a
// single thread or count across all lanes).
std::vector<obs::TraceEvent> all_events(
    const std::vector<obs::ThreadTrace>& threads) {
  std::vector<obs::TraceEvent> out;
  for (const auto& t : threads)
    out.insert(out.end(), t.events.begin(), t.events.end());
  return out;
}

TEST(Trace, SpanNestingAndOrdering) {
  Tracer::instance().start();
  {
    obs::TraceSpan outer("test", "outer");
    {
      obs::TraceSpan inner("test", "inner", 7, 9);
    }
    obs::trace_instant("test", "marker");
  }
  Tracer::instance().stop();

  const auto threads = Tracer::instance().snapshot();
  const auto events = all_events(threads);
  ASSERT_EQ(events.size(), 3u);

  // Spans are recorded at close, so the inner span lands first.
  const auto& inner = events[0];
  const auto& marker = events[1];
  const auto& outer = events[2];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.a0, 7);
  EXPECT_EQ(inner.a1, 9);
  EXPECT_EQ(marker.ph, 'i');

  // Proper nesting: outer starts no later than inner and ends no earlier.
  EXPECT_LE(outer.ts_ns, inner.ts_ns);
  EXPECT_GE(outer.ts_ns + outer.dur_ns, inner.ts_ns + inner.dur_ns);
  // The instant fired between inner close and outer close.
  EXPECT_GE(marker.ts_ns, inner.ts_ns + inner.dur_ns);
  EXPECT_LE(marker.ts_ns, outer.ts_ns + outer.dur_ns);
}

TEST(Trace, DisabledRecordsNothing) {
  Tracer::instance().start();
  Tracer::instance().stop();
  {
    obs::TraceSpan span("test", "ignored");
    obs::trace_instant("test", "ignored");
  }
  EXPECT_TRUE(all_events(Tracer::instance().snapshot()).empty());
}

TEST(Trace, RingOverflowKeepsNewestEvents) {
  Tracer::instance().start(/*per_thread_capacity=*/16);
  for (int i = 0; i < 50; ++i)
    obs::trace_instant("test", "tick", i);
  Tracer::instance().stop();

  const auto threads = Tracer::instance().snapshot();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].events.size(), 16u);
  EXPECT_EQ(threads[0].dropped, 34u);
  // Chronological order, ending at the newest sample.
  EXPECT_EQ(threads[0].events.front().a0, 34);
  EXPECT_EQ(threads[0].events.back().a0, 49);
}

TEST(Trace, ChromeExportIsValidJson) {
  Tracer::instance().start();
  Tracer::instance().name_this_thread("main");
  {
    obs::TraceSpan s("engine", "middle", 1, 2);
  }
  obs::trace_counter("sched", "ready_depth", 3);
  Tracer::instance().stop();

  std::ostringstream os;
  obs::write_chrome_trace(os, Tracer::instance().snapshot());

  JsonValue root;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), root, &err)) << err;
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.at("traceEvents").arr;
  // process_name + thread_name metadata + span + counter.
  ASSERT_GE(events.size(), 4u);

  bool saw_span = false, saw_counter = false, saw_name = false;
  for (const auto& ev : events) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_TRUE(ev.has("ph"));
    const std::string ph = ev.at("ph").str;
    if (ph == "X") {
      saw_span = true;
      EXPECT_TRUE(ev.at("ts").is_number());
      EXPECT_TRUE(ev.at("dur").is_number());
      EXPECT_GE(ev.at("dur").number, 0.0);
      EXPECT_EQ(ev.at("name").str, "middle");
      EXPECT_EQ(ev.at("args").at("a0").number, 1);
      EXPECT_EQ(ev.at("args").at("a1").number, 2);
    } else if (ph == "C") {
      saw_counter = true;
      EXPECT_EQ(ev.at("args").at("value").number, 3);
    } else if (ph == "M" && ev.at("name").str == "thread_name") {
      saw_name = ev.at("args").at("name").str == "main";
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_name);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.hits");
  obs::Histogram& h = reg.histogram("test.lat");

  constexpr int kThreads = 8, kIter = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIter; ++i) {
        c.add();
        h.observe(t * kIter + i);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(c.value(), std::int64_t(kThreads) * kIter);
  EXPECT_EQ(h.count(), std::int64_t(kThreads) * kIter);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), std::int64_t(kThreads) * kIter - 1);

  std::ostringstream os;
  reg.write_json(os);
  JsonValue root;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), root, &err)) << err;
  EXPECT_EQ(root.at("counters").at("test.hits").number,
            double(kThreads) * kIter);
  EXPECT_EQ(root.at("histograms").at("test.lat").at("count").number,
            double(kThreads) * kIter);
}

TEST(Metrics, HistogramQuantiles) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(100);  // bucket [64,128)
  h.observe(100000);                              // one outlier
  EXPECT_GE(h.quantile_upper_bound(0.5), 100);
  EXPECT_LT(h.quantile_upper_bound(0.5), 128);
  EXPECT_GE(h.quantile_upper_bound(1.0), 100000 / 2);
}

TEST(Metrics, InterpolatedQuantileIsClampedToObservedRange) {
  // One constant value: every quantile is exactly that value (the old
  // bucket-upper-bound answer overstated 100 as 127).
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(100);
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.00), 100.0);

  // Uniform samples over [0, 1024): the interpolated quantile must land
  // within one log2 bucket of the exact order statistic, and always
  // inside [min, max]; the upper bound may legally overstate by ~2x.
  obs::Histogram u;
  for (int i = 0; i < 1024; ++i) u.observe(i);
  for (const double q : {0.1, 0.25, 0.5, 0.9, 0.99}) {
    const double exact = q * 1023;
    const double est = u.quantile(q);
    EXPECT_GE(est, 0.0) << q;
    EXPECT_LE(est, 1023.0) << q;
    // Within the containing power-of-two bucket of the true value.
    EXPECT_LE(est, 2 * exact + 2) << q;
    EXPECT_GE(est, exact / 2 - 2) << q;
    // At an exact bucket boundary the interpolation reaches the exclusive
    // hi (2^b), one past the inclusive bucket-ceiling bound (2^b - 1).
    EXPECT_LE(est, double(u.quantile_upper_bound(q)) + 1) << q;
  }
  EXPECT_EQ(obs::Histogram{}.quantile(0.5), 0.0);  // empty histogram
}

TEST(Metrics, ConcurrentObserveMatchesSerialGroundTruth) {
  // The same deterministic sample stream observed from 8 threads and
  // from one thread must land in identical buckets with identical
  // count/sum/min/max — no lost updates anywhere in the histogram.
  constexpr int kThreads = 8, kIter = 10000;
  obs::Histogram par, ser;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&par, t] {
      SplitMix64 rng(1000 + std::uint64_t(t));
      for (int i = 0; i < kIter; ++i)
        par.observe(std::int64_t(rng.next_below(1u << 20)));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    SplitMix64 rng(1000 + std::uint64_t(t));
    for (int i = 0; i < kIter; ++i)
      ser.observe(std::int64_t(rng.next_below(1u << 20)));
  }
  EXPECT_EQ(par.count(), ser.count());
  EXPECT_EQ(par.sum(), ser.sum());
  EXPECT_EQ(par.min(), ser.min());
  EXPECT_EQ(par.max(), ser.max());
  for (int b = 0; b < obs::Histogram::kBuckets; ++b)
    EXPECT_EQ(par.bucket(b), ser.bucket(b)) << "bucket " << b;
  EXPECT_DOUBLE_EQ(par.quantile(0.99), ser.quantile(0.99));
}

TEST(Metrics, SnapshotCapturesAllFamiliesWithStableOrdering) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.counter("m.middle").add(2);
  reg.gauge("g.depth").set(4.5);
  reg.histogram("h.lat").observe(100);
  reg.histogram("h.lat").observe(300);

  const obs::MetricsSnapshot s1 = reg.snapshot();
  ASSERT_EQ(s1.counters.size(), 3u);
  EXPECT_EQ(s1.counters[0].first, "a.first");
  EXPECT_EQ(s1.counters[1].first, "m.middle");
  EXPECT_EQ(s1.counters[2].first, "z.last");
  EXPECT_EQ(s1.counter_or("m.middle", -1), 2);
  EXPECT_EQ(s1.counter_or("missing", -1), -1);
  const obs::HistogramSnapshot* h = s1.find_histogram("h.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum, 400);
  EXPECT_EQ(h->min, 100);
  EXPECT_EQ(h->max, 300);
  // Snapshot quantiles agree with the live histogram's.
  EXPECT_DOUBLE_EQ(h->quantile(0.5), reg.histogram("h.lat").quantile(0.5));

  // Deltas between successive snapshots are monotone per counter.
  reg.counter("a.first").add(10);
  const obs::MetricsSnapshot s2 = reg.snapshot();
  for (std::size_t i = 0; i < s1.counters.size(); ++i) {
    EXPECT_EQ(s2.counters[i].first, s1.counters[i].first);
    EXPECT_GE(s2.counters[i].second, s1.counters[i].second);
  }
}

TEST(Exposition, NamesAreSanitizedAndLabelsEscaped) {
  EXPECT_EQ(obs::prometheus_name("serve.status.ok", "cellnpdp"),
            "cellnpdp_serve_status_ok");
  EXPECT_EQ(obs::prometheus_name("net.bytes-in/sec"), "net_bytes_in_sec");
  EXPECT_EQ(obs::prometheus_name("9lives"), "_9lives");  // no leading digit
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
}

TEST(Exposition, WritesCountersGaugesAndSummaryQuantiles) {
  obs::MetricsRegistry reg;
  reg.counter("serve.status.ok").add(7);
  reg.gauge("net.active_conns").set(2);
  for (int i = 0; i < 100; ++i) reg.histogram("serve.total_ns").observe(1000);

  std::vector<obs::PromLabeledSample> extra;
  extra.push_back({"breaker_state", {{"backend", "ref\"erence"}}, 1.0});
  std::ostringstream os;
  obs::write_prometheus_text(os, reg.snapshot(), extra);
  const std::string out = os.str();

  EXPECT_NE(out.find("# TYPE cellnpdp_serve_status_ok counter"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("cellnpdp_serve_status_ok 7"), std::string::npos);
  EXPECT_NE(out.find("cellnpdp_net_active_conns 2"), std::string::npos);
  EXPECT_NE(out.find("cellnpdp_serve_total_ns{quantile=\"0.99\"} 1000"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("cellnpdp_serve_total_ns_count 100"), std::string::npos);
  EXPECT_NE(out.find("cellnpdp_serve_total_ns_sum 100000"),
            std::string::npos);
  EXPECT_NE(out.find("cellnpdp_breaker_state{backend=\"ref\\\"erence\"} 1"),
            std::string::npos)
      << out;
  // Exposition text ends with a newline (scrape format requirement).
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
}

TEST(RequestLog, AppendsAnnotatesSamplesAndWritesJsonl) {
  obs::RequestLog log;
  log.enable(/*capacity=*/8);
  obs::WideEvent ev;
  ev.trace_id = 42;
  ev.request_id = 7;
  ev.kind = "chain";
  ev.status = "ok";
  ev.backend = "blocked-serial";
  ev.queue_ns = 1000;
  ev.solve_ns = 2000;
  ev.total_ns = 3500;
  ev.retries = 1;
  log.append(ev);
  log.annotate_encode(7, 450);

  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].encode_ns, 450);

  std::ostringstream os;
  log.write_jsonl(os);
  JsonValue root;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), root, &err)) << err << "\n" << os.str();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("trace_id").number, 42);
  EXPECT_EQ(root.at("id").number, 7);
  EXPECT_EQ(root.at("kind").str, "chain");
  EXPECT_EQ(root.at("status").str, "ok");
  EXPECT_EQ(root.at("backend").str, "blocked-serial");
  EXPECT_EQ(root.at("queue_ns").number, 1000);
  EXPECT_EQ(root.at("solve_ns").number, 2000);
  EXPECT_EQ(root.at("encode_ns").number, 450);
  EXPECT_EQ(root.at("total_ns").number, 3500);
  EXPECT_EQ(root.at("retries").number, 1);

  // Ring keeps the newest `capacity` records.
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::WideEvent e;
    e.request_id = 100 + i;
    log.append(e);
  }
  const auto tail = log.snapshot();
  ASSERT_EQ(tail.size(), 8u);
  EXPECT_EQ(tail.back().request_id, 119u);
  EXPECT_EQ(tail.front().request_id, 112u);

  // Keep-1-of-N sampling is deterministic on trace_id ^ request_id.
  obs::RequestLog sampled;
  sampled.enable(1024);
  sampled.set_sample_every(10);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    obs::WideEvent e;
    e.trace_id = obs::next_trace_id();
    e.request_id = i;
    sampled.append(e);
  }
  const std::size_t kept = sampled.snapshot().size();
  EXPECT_GT(kept, 50u);   // ~100 expected; the hash is not exact
  EXPECT_LT(kept, 200u);
  EXPECT_EQ(kept + sampled.sampled_out(), 1000u);
  // Disabled log drops everything silently.
  obs::RequestLog off;
  obs::WideEvent e2;
  off.append(e2);
  EXPECT_TRUE(off.snapshot().empty());
}

TEST(SpanContext, RootContextsAreUniqueAndNonZero) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const obs::SpanContext c = obs::make_root_context(true);
    EXPECT_TRUE(c.valid());
    EXPECT_NE(c.trace_id, 0u);
    EXPECT_EQ(c.parent_span_id, c.trace_id);  // root: parent == self
    EXPECT_TRUE(seen.insert(c.trace_id).second) << "duplicate trace id";
  }
}

// Builds one cat:"req" trace event as JSON text.
std::string req_event(const char* name, const char* ph, long a0,
                      long a1 = -1) {
  std::string s = "{\"name\":\"" + std::string(name) + "\",\"cat\":\"req\","
                  "\"ph\":\"" + ph + "\",\"pid\":0,\"tid\":1,\"ts\":1.0";
  if (std::string(ph) == "X") s += ",\"dur\":2.0";
  s += ",\"args\":{\"a0\":" + std::to_string(a0);
  if (a1 >= 0) s += ",\"a1\":" + std::to_string(a1);
  s += "}}";
  return s;
}

std::string trace_doc(const std::vector<std::string>& events) {
  std::string s = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) s += ",";
    s += events[i];
  }
  return s + "]}";
}

TEST(TraceExport, MergedTracesGetDistinctPidsAndKeepAllOtherKeys) {
  JsonValue client, server;
  std::string err;
  ASSERT_TRUE(json_parse(trace_doc({req_event("client", "X", 7)}), client,
                         &err))
      << err;
  ASSERT_TRUE(json_parse(
      trace_doc({req_event("decode", "i", 7), req_event("queue", "X", 7)}),
      server, &err))
      << err;
  std::ostringstream os;
  obs::merge_chrome_traces(os, {&client, &server});
  JsonValue merged;
  ASSERT_TRUE(json_parse(os.str(), merged, &err)) << err << "\n" << os.str();
  const auto& events = merged.at("traceEvents").arr;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("pid").number, 0);  // first input file
  EXPECT_EQ(events[1].at("pid").number, 1);  // second input file
  EXPECT_EQ(events[2].at("pid").number, 1);
  EXPECT_EQ(events[0].at("name").str, "client");
  EXPECT_EQ(events[0].at("args").at("a0").number, 7);
  EXPECT_EQ(events[2].at("dur").number, 2.0);
}

TEST(TraceExport, ChainAnalysisCountsCompleteChainsAndOrphans) {
  // Chain 1: complete success (client + decode + queue + solve + encode +
  // respond with Ok). Chain 2: complete failure path (no solver work, but
  // respond carries a non-success status). Chain 3: client span whose
  // respond says Ok but no solve/cache — incomplete. Chain 4: server-side
  // events with no client span — an orphan.
  const std::string doc = trace_doc({
      req_event("client", "X", 1), req_event("decode", "i", 1),
      req_event("queue", "X", 1), req_event("solve", "X", 1),
      req_event("encode", "i", 1), req_event("respond", "i", 1, 0),
      req_event("client", "X", 2), req_event("decode", "i", 2),
      req_event("queue", "X", 2), req_event("encode", "i", 2),
      req_event("respond", "i", 2, 3),  // Shed
      req_event("client", "X", 3), req_event("decode", "i", 3),
      req_event("queue", "X", 3), req_event("encode", "i", 3),
      req_event("respond", "i", 3, 0),  // Ok but no work span
      req_event("decode", "i", 4), req_event("queue", "X", 4),
  });
  JsonValue root;
  std::string err;
  ASSERT_TRUE(json_parse(doc, root, &err)) << err;
  const obs::ChainSummary cs = obs::analyze_request_chains(root, {0, 1, 7});
  EXPECT_EQ(cs.with_client, 3);
  EXPECT_EQ(cs.complete, 2);
  EXPECT_EQ(cs.orphans, 1);
  ASSERT_EQ(cs.chains.size(), 4u);
  bool saw_shed = false;
  for (const auto& ci : cs.chains)
    if (ci.trace_id == 2) {
      saw_shed = true;
      EXPECT_EQ(ci.status, 3);
      EXPECT_FALSE(ci.solve);
    }
  EXPECT_TRUE(saw_shed);
}

// End-to-end: a traced parallel solve must produce exactly one completed
// "task" span per scheduling block, distributed over the worker lanes,
// and the busy time the executor reports must equal the summed task-span
// durations (they bracket the same region).
TEST(Trace, ParallelSolveEmitsOneSpanPerSchedulingBlock) {
  NpdpInstance<float> inst;
  inst.n = 256;
  inst.init = [](index_t i, index_t j) {
    return i == j ? 0.0f : float((i * 7 + j * 13) % 100);
  };
  NpdpOptions opts;
  opts.block_side = 32;
  opts.threads = 4;

  Tracer::instance().start();
  SolveStats ss;
  const auto table = solve_blocked(inst, opts, &ss);
  Tracer::instance().stop();

  const index_t m = ceil_div(inst.n, opts.block_side);
  const index_t expected_tasks = triangle_cells(m);
  EXPECT_EQ(ss.tasks, expected_tasks);

  const auto threads = Tracer::instance().snapshot();
  std::int64_t task_spans = 0, task_ns = 0;
  std::set<std::pair<std::int64_t, std::int64_t>> coords;
  bool saw_middle = false, saw_inner = false, saw_corner = false;
  for (const auto& t : threads) {
    EXPECT_EQ(t.dropped, 0u);
    for (const auto& ev : t.events) {
      if (ev.ph != 'X') continue;
      EXPECT_GE(ev.dur_ns, 0);
      if (std::string_view(ev.name) == "task") {
        ++task_spans;
        task_ns += ev.dur_ns;
        coords.emplace(ev.a0, ev.a1);
      }
      const std::string_view cat(ev.cat);
      saw_middle |= cat == "middle";
      saw_inner |= cat == "inner";
      saw_corner |= cat == "corner";
    }
  }
  // Every scheduling block produced exactly one begin/end pair, with
  // distinct (si,sj) coordinates.
  EXPECT_EQ(task_spans, expected_tasks);
  EXPECT_EQ(static_cast<index_t>(coords.size()), expected_tasks);
  EXPECT_TRUE(saw_middle);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_corner);

  // Executor busy time == summed task-span durations (same bracketed
  // region, measured with separate clock reads — allow small jitter).
  const double busy = ss.busy_total();
  const double spans = double(task_ns) / 1e9;
  EXPECT_NEAR(busy, spans, 0.05 * std::max(busy, spans) + 1e-3);
  // Busy time can never exceed workers * wall.
  EXPECT_LE(busy, ss.wall_seconds * double(ss.worker_busy.size()) * 1.05);
  EXPECT_GT(ss.utilization(), 0.0);
  EXPECT_LE(ss.utilization(), 1.01);

  // The summed engine counters must match a single-threaded reference.
  NpdpOptions one = opts;
  one.threads = 1;
  SolveStats serial;
  const auto ref = solve_blocked(inst, one, &serial);
  EXPECT_EQ(ss.engine.kernel_calls, serial.engine.kernel_calls);
  EXPECT_EQ(ss.engine.corner_relax, serial.engine.corner_relax);
  EXPECT_EQ(ss.engine.diag_relax, serial.engine.diag_relax);
  EXPECT_EQ(ss.engine.cells_finalized, serial.engine.cells_finalized);

  // And the parallel solve is still correct.
  for (index_t j = 0; j < inst.n; j += 17)
    EXPECT_EQ(table.at(0, j), ref.at(0, j));
}

TEST(Report, UtilizationFoldsBusyIntoMeasuredU) {
  obs::UtilizationReport r;
  r.wall_seconds = 2.0;
  r.worker_busy = {2.0, 1.0, 1.0};  // 4s busy over 3 workers * 2s wall
  EXPECT_DOUBLE_EQ(r.busy_total(), 4.0);
  EXPECT_NEAR(r.measured_utilization(), 4.0 / 6.0, 1e-12);

  ModelParams p;
  p.n1 = 2048;
  p.cores = 3;
  p.n2_override = 64;
  std::ostringstream os;
  obs::print_utilization_report(os, r, p);
  const std::string out = os.str();
  EXPECT_NE(out.find("worker 0"), std::string::npos);
  EXPECT_NE(out.find("measured worker utilization"), std::string::npos);
  EXPECT_NE(out.find("model prediction"), std::string::npos);
}

TEST(Report, PhaseTotalsAggregateByCategory) {
  std::vector<obs::ThreadTrace> threads(2);
  obs::TraceEvent a;
  a.name = "middle";
  a.cat = "middle";
  a.ts_ns = 0;
  a.dur_ns = 100;
  obs::TraceEvent b = a;
  b.cat = "inner";
  b.name = "inner";
  b.dur_ns = 50;
  threads[0].events = {a, b};
  threads[1].events = {a};

  const auto totals = obs::aggregate_phase_totals(threads);
  ASSERT_EQ(totals.size(), 2u);
  for (const auto& pt : totals) {
    if (pt.cat == "middle") {
      EXPECT_EQ(pt.total_ns, 200);
      EXPECT_EQ(pt.spans, 2);
    } else {
      EXPECT_EQ(pt.cat, "inner");
      EXPECT_EQ(pt.total_ns, 50);
      EXPECT_EQ(pt.spans, 1);
    }
  }
}

}  // namespace
}  // namespace cellnpdp

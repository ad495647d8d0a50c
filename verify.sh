#!/usr/bin/env bash
# End-to-end verification: configure, build, run the full test suite, then
# record a traced parallel solve and validate the emitted trace file.
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

echo "== configure =="
# Warnings are errors: the build is kept warning-free.
cmake -B "$BUILD_DIR" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== traced solve =="
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
"$BUILD_DIR"/tools/npdp solve --n 2048 --threads 4 \
    --trace "$TRACE_DIR/trace.json" \
    --metrics "$TRACE_DIR/metrics.json" --report

echo "== validate trace =="
# n=2048, block 64 -> m=32 scheduling rows -> 32*33/2 = 528 block tasks.
"$BUILD_DIR"/tools/npdp check-trace --file "$TRACE_DIR/trace.json" \
    --min-workers 2 --expect-tasks 528

echo "== semiring instantiations =="
# One solve per semiring through the CLI (counting kept small so the float
# table stays finite), plus rejection of unknown names and of semirings a
# backend does not advertise.
"$BUILD_DIR"/tools/npdp solve --n 512 --semiring min-plus
"$BUILD_DIR"/tools/npdp solve --n 512 --semiring max-plus
"$BUILD_DIR"/tools/npdp solve --n 24 --block 8 --semiring counting
"$BUILD_DIR"/tools/npdp solve --n 512 --semiring viterbi-log
if "$BUILD_DIR"/tools/npdp solve --n 64 --semiring tropical 2>/dev/null; then
  echo "unknown semiring name was not rejected"; exit 1
fi
if "$BUILD_DIR"/tools/npdp solve --n 64 --semiring counting --backend tan \
    2>/dev/null; then
  echo "min-plus-only backend accepted a counting solve"; exit 1
fi
"$BUILD_DIR"/tools/npdp backends | grep -q 'counting'
echo "semiring smoke: clean"

echo "== fault injection: deterministic replay =="
# Same plan + same (single-threaded) execution must produce byte-identical
# fired-fault logs, and the healed solve must match the clean one (the
# resilient backend prints the same optimal value either way).
cat > "$TRACE_DIR/faults.json" <<'EOF'
{"seed": 42, "faults": [
  {"site": "task-throw", "rate": 0.05},
  {"site": "block-corrupt", "rate": 0.01}
]}
EOF
"$BUILD_DIR"/tools/npdp solve --n 1024 --backend resilient \
    --fault-plan "$TRACE_DIR/faults.json" --fault-log "$TRACE_DIR/log1.json"
"$BUILD_DIR"/tools/npdp solve --n 1024 --backend resilient \
    --fault-plan "$TRACE_DIR/faults.json" --fault-log "$TRACE_DIR/log2.json"
cmp "$TRACE_DIR/log1.json" "$TRACE_DIR/log2.json"
echo "fault replay: logs byte-identical"

echo "== network loopback smoke =="
# Bring the epoll front-end up on an ephemeral port, drive it with the
# load generator, and require a clean run (every request answered, zero
# protocol or transport errors) plus a graceful SIGTERM drain.
NET_DIR=$(mktemp -d)
"$BUILD_DIR"/tools/npdp net-serve --port 0 --reactors 2 \
    --port-file "$NET_DIR/port" &
NET_PID=$!
trap 'kill "$NET_PID" 2>/dev/null; rm -rf "$TRACE_DIR" "$NET_DIR"' EXIT
for _ in $(seq 100); do
  [ -s "$NET_DIR/port" ] && break
  sleep 0.1
done
[ -s "$NET_DIR/port" ] || { echo "net-serve never bound"; exit 1; }
NET_PORT=$(cat "$NET_DIR/port")
"$BUILD_DIR"/tools/npdp net-bench --port "$NET_PORT" --connections 4 \
    --duration 2 --mix mix --size 24 --json-dir "$NET_DIR"
grep -q '"proto_errors":0' "$NET_DIR"/BENCH_net.json
grep -q '"transport_errors":0' "$NET_DIR"/BENCH_net.json
# Mixed-semiring traffic against the same server: every solve rotates
# through the four instantiations; a clean run means the optional wire tag
# decodes everywhere and the pool repads its arenas correctly per request.
mkdir -p "$NET_DIR/semiring"
"$BUILD_DIR"/tools/npdp net-bench --port "$NET_PORT" --connections 4 \
    --duration 2 --mix solve --size 24 --semiring mix \
    --json-dir "$NET_DIR/semiring"
grep -q '"proto_errors":0' "$NET_DIR"/semiring/BENCH_net.json
grep -q '"transport_errors":0' "$NET_DIR"/semiring/BENCH_net.json
kill -TERM "$NET_PID"
wait "$NET_PID"
trap 'rm -rf "$TRACE_DIR" "$NET_DIR"' EXIT
echo "net loopback: clean"

echo "== end-to-end telemetry: trace propagation + wide events =="
# Serve with server-side request tracing and the wide-event log, drive it
# with a trace-originating load (every request sampled), then merge the
# client and server traces and require >=99% of request chains to be
# complete with zero orphan server spans. (The live stats plane is the
# smoke_npdp_stats_plane ctest entry.)
TEL_DIR=$(mktemp -d)
"$BUILD_DIR"/tools/npdp net-serve --port 0 --reactors 2 \
    --port-file "$TEL_DIR/port" \
    --trace "$TEL_DIR/server_trace.json" \
    --request-log "$TEL_DIR/wide.jsonl" &
TEL_PID=$!
trap 'kill "$TEL_PID" 2>/dev/null; rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR"' EXIT
for _ in $(seq 100); do
  [ -s "$TEL_DIR/port" ] && break
  sleep 0.1
done
[ -s "$TEL_DIR/port" ] || { echo "telemetry net-serve never bound"; exit 1; }
TEL_PORT=$(cat "$TEL_DIR/port")
"$BUILD_DIR"/tools/npdp net-bench --port "$TEL_PORT" --connections 2 \
    --requests 50 --duration 5 --mix chain --size 24 \
    --trace "$TEL_DIR/client_trace.json" --trace-sample 1 \
    --json-dir "$TEL_DIR"
grep -q '"proto_errors":0' "$TEL_DIR"/BENCH_net.json
grep -q '"transport_errors":0' "$TEL_DIR"/BENCH_net.json
kill -TERM "$TEL_PID"
wait "$TEL_PID"
trap 'rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR"' EXIT
# Every completed request must have produced one wide event.
[ -s "$TEL_DIR/wide.jsonl" ] || { echo "no wide events written"; exit 1; }
grep -q '"trace_id":' "$TEL_DIR/wide.jsonl"
grep -q '"queue_ns":' "$TEL_DIR/wide.jsonl"
"$BUILD_DIR"/tools/npdp merge-traces --out "$TEL_DIR/merged.json" \
    --client "$TEL_DIR/client_trace.json" \
    --server "$TEL_DIR/server_trace.json"
"$BUILD_DIR"/tools/npdp check-trace --file "$TEL_DIR/merged.json" \
    --chains --min-chain-frac 0.99
echo "telemetry: clean"

echo "== router tier: sharded caches + SIGKILL failover =="
# Three small-cache replicas behind the consistent-hash router, driven by
# a traced bench whose working set (40 distinct keys) exceeds one
# replica's cache (16 entries) but shards to fit. One replica is
# SIGKILLed mid-run: the bench must still exit clean (zero client-visible
# errors), >=99% of trace chains must be complete, and the aggregate
# cache hit rate must beat the single-replica baseline.
RT_DIR=$(mktemp -d)
mkdir -p "$RT_DIR/base" "$RT_DIR/router"
hit_rate_of() {
  awk 'ok=="" && match($0,/"ok":[0-9]+/){ok=substr($0,RSTART+5,RLENGTH-5)}
       c=="" && match($0,/"ok_cached":[0-9]+/){c=substr($0,RSTART+12,RLENGTH-12)}
       END{if(ok+c>0) printf "%.4f", c/(ok+c); else print "0"}' "$1"
}
"$BUILD_DIR"/tools/npdp net-serve --port 0 --port-file "$RT_DIR/base.port" \
    --cache 16 &
RT_BASE_PID=$!
trap 'kill "$RT_BASE_PID" 2>/dev/null; rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR" "$RT_DIR"' EXIT
for _ in $(seq 100); do
  [ -s "$RT_DIR/base.port" ] && break
  sleep 0.1
done
[ -s "$RT_DIR/base.port" ] || { echo "baseline replica never bound"; exit 1; }
"$BUILD_DIR"/tools/npdp net-bench --port "$(cat "$RT_DIR/base.port")" \
    --connections 4 --duration 2 --mix chain --size 24 --distinct 40 \
    --json-dir "$RT_DIR/base"
kill -TERM "$RT_BASE_PID"
wait "$RT_BASE_PID"
R_PIDS=()
for i in 1 2 3; do
  "$BUILD_DIR"/tools/npdp net-serve --port 0 \
      --port-file "$RT_DIR/r$i.port" --cache 16 &
  R_PIDS+=($!)
done
trap 'kill "${R_PIDS[@]}" 2>/dev/null; rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR" "$RT_DIR"' EXIT
for _ in $(seq 100); do
  [ -s "$RT_DIR/r1.port" ] && [ -s "$RT_DIR/r2.port" ] && \
  [ -s "$RT_DIR/r3.port" ] && break
  sleep 0.1
done
[ -s "$RT_DIR/r3.port" ] || { echo "replicas never bound"; exit 1; }
"$BUILD_DIR"/tools/npdp net-route --port 0 --port-file "$RT_DIR/router.port" \
    --probe-interval-ms 100 --trace "$RT_DIR/router_trace.json" \
    --replicas "r1=127.0.0.1:$(cat "$RT_DIR/r1.port"),r2=127.0.0.1:$(cat "$RT_DIR/r2.port"),r3=127.0.0.1:$(cat "$RT_DIR/r3.port")" &
RT_PID=$!
trap 'kill "$RT_PID" "${R_PIDS[@]}" 2>/dev/null; rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR" "$RT_DIR"' EXIT
for _ in $(seq 100); do
  [ -s "$RT_DIR/router.port" ] && break
  sleep 0.1
done
[ -s "$RT_DIR/router.port" ] || { echo "router never bound"; exit 1; }
"$BUILD_DIR"/tools/npdp net-bench --port "$(cat "$RT_DIR/router.port")" \
    --connections 4 --duration 4 --mix chain --size 24 --distinct 40 \
    --trace "$RT_DIR/client_trace.json" --trace-sample 1 \
    --json-dir "$RT_DIR/router" &
RT_BENCH_PID=$!
sleep 2
kill -9 "${R_PIDS[1]}"   # SIGKILL replica r2 mid-run
wait "$RT_BENCH_PID"     # nonzero on any client-visible error
kill -TERM "$RT_PID"
wait "$RT_PID"
kill -TERM "${R_PIDS[0]}" "${R_PIDS[2]}" 2>/dev/null
wait "${R_PIDS[0]}" "${R_PIDS[2]}" 2>/dev/null || true
trap 'rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR" "$RT_DIR"' EXIT
"$BUILD_DIR"/tools/npdp merge-traces --out "$RT_DIR/merged.json" \
    --client "$RT_DIR/client_trace.json" \
    --server "$RT_DIR/router_trace.json"
"$BUILD_DIR"/tools/npdp check-trace --file "$RT_DIR/merged.json" \
    --chains --min-chain-frac 0.99
BASE_HIT=$(hit_rate_of "$RT_DIR/base/BENCH_net.json")
ROUTER_HIT=$(hit_rate_of "$RT_DIR/router/BENCH_net.json")
awk -v b="$BASE_HIT" -v r="$ROUTER_HIT" \
    'BEGIN{exit !(r > b)}' || {
  echo "router hit rate $ROUTER_HIT not above baseline $BASE_HIT"; exit 1; }
echo "router tier: clean (hit rate $ROUTER_HIT vs single-replica $BASE_HIT)"

echo "== multi-tenant qos: two-tenant overload isolation =="
# One tenanted server: a rate-limited hot tenant (1) and an unthrottled
# quiet tenant (2) with a 4x fair-share weight. The quiet tenant's p99 is
# measured alone, then again while the hot tenant floods at far above its
# bucket rate. The hot run must see nonzero RetryAfter/Shed pushback, the
# quiet p99 must stay within 3x its unloaded baseline (plus a 5 ms floor
# for timer noise at small absolute latencies), and both runs must exit
# clean — throttling is a status, never a dropped reply.
QOS_DIR=$(mktemp -d)
mkdir -p "$QOS_DIR/quiet_base" "$QOS_DIR/quiet_load" "$QOS_DIR/hot"
"$BUILD_DIR"/tools/npdp net-serve --port 0 --port-file "$QOS_DIR/port" \
    --workers 2 --queue 64 --policy shed-oldest \
    --tenants '1:name=hot:rate=200:burst=20:weight=1/2:name=quiet:weight=4' &
QOS_PID=$!
trap 'kill "$QOS_PID" 2>/dev/null; rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR" "$RT_DIR" "$QOS_DIR"' EXIT
for _ in $(seq 100); do
  [ -s "$QOS_DIR/port" ] && break
  sleep 0.1
done
[ -s "$QOS_DIR/port" ] || { echo "qos net-serve never bound"; exit 1; }
QOS_PORT=$(cat "$QOS_DIR/port")
"$BUILD_DIR"/tools/npdp net-bench --port "$QOS_PORT" --connections 2 \
    --rate 50 --duration 2 --mix chain --size 48 --tenant 2 \
    --json-dir "$QOS_DIR/quiet_base"
"$BUILD_DIR"/tools/npdp net-bench --port "$QOS_PORT" --connections 4 \
    --rate 2000 --duration 3 --mix chain --size 48 --tenant 1 \
    --json-dir "$QOS_DIR/hot" &
QOS_HOT_PID=$!
"$BUILD_DIR"/tools/npdp net-bench --port "$QOS_PORT" --connections 2 \
    --rate 50 --duration 3 --mix chain --size 48 --tenant 2 \
    --json-dir "$QOS_DIR/quiet_load"
wait "$QOS_HOT_PID"          # nonzero on any client-visible error
kill -TERM "$QOS_PID"
wait "$QOS_PID"
trap 'rm -rf "$TRACE_DIR" "$NET_DIR" "$TEL_DIR" "$RT_DIR" "$QOS_DIR"' EXIT
field_of() {
  awk -v f="\"$2\":" 'match($0, f "[0-9.]+") {
    print substr($0, RSTART + length(f), RLENGTH - length(f)); exit }' "$1"
}
HOT_PUSHBACK=$(( $(field_of "$QOS_DIR/hot/BENCH_net.json" retry_after) \
               + $(field_of "$QOS_DIR/hot/BENCH_net.json" shed) ))
[ "$HOT_PUSHBACK" -gt 0 ] || {
  echo "hot tenant was never throttled or shed"; exit 1; }
QUIET_BASE_P99=$(field_of "$QOS_DIR/quiet_base/BENCH_net.json" p99_ms)
QUIET_LOAD_P99=$(field_of "$QOS_DIR/quiet_load/BENCH_net.json" p99_ms)
awk -v b="$QUIET_BASE_P99" -v l="$QUIET_LOAD_P99" \
    'BEGIN{exit !(l <= 3 * b + 5)}' || {
  echo "quiet p99 ${QUIET_LOAD_P99}ms exceeds 3x baseline ${QUIET_BASE_P99}ms"
  exit 1; }
echo "qos: clean (quiet p99 ${QUIET_LOAD_P99}ms vs ${QUIET_BASE_P99}ms alone, hot pushback $HOT_PUSHBACK)"

echo "== sanitizers (simd + layout + semiring + differential + traceback + polygon + apps + serve + qos + taskgraph + cancel + resilience + net + router + dist + cli) =="
# The concurrency-heavy suites rerun under ASan/UBSan in a separate tree;
# the semiring property sweep and the backend differential matrix ride
# along so every instantiation's kernel and solve paths get sanitized too,
# the simd and layout suites cover the block product's tail panels and
# the mapping table allocator, the traceback, polygon and apps suites
# cover the split scan and the k-term product's padding skip (the polygon
# functor indexes its edge-length table with the engine's indices), and
# the CLI flag parser is covered because it reads input from outside.
ASAN_DIR=${ASAN_DIR:-build-asan}
cmake -B "$ASAN_DIR" -S . -DCELLNPDP_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$JOBS" --target test_simd test_layout \
    test_serve test_qos test_taskgraph test_cancel test_resilience test_net \
    test_router test_semiring test_differential test_traceback test_polygon \
    test_apps test_dist test_cli
"$ASAN_DIR"/tests/test_simd
"$ASAN_DIR"/tests/test_layout
"$ASAN_DIR"/tests/test_semiring
"$ASAN_DIR"/tests/test_differential
"$ASAN_DIR"/tests/test_traceback
"$ASAN_DIR"/tests/test_polygon
"$ASAN_DIR"/tests/test_apps
"$ASAN_DIR"/tests/test_serve
"$ASAN_DIR"/tests/test_qos
"$ASAN_DIR"/tests/test_taskgraph
"$ASAN_DIR"/tests/test_cancel
"$ASAN_DIR"/tests/test_resilience
"$ASAN_DIR"/tests/test_net
"$ASAN_DIR"/tests/test_router
"$ASAN_DIR"/tests/test_dist
"$ASAN_DIR"/tests/test_cli

echo "== thread sanitizer (taskgraph + serve + qos + cancel + resilience + net + router + dist) =="
# Cancellation crosses threads by design (dispatcher trips tokens that
# workers poll), the block scheduler hands tasks between workers and
# arriving peers under one mutex, and the hedge watchdog races primaries
# against twins on purpose; TSan is the check that those handoffs are
# race-free.
TSAN_DIR=${TSAN_DIR:-build-tsan}
cmake -B "$TSAN_DIR" -S . -DCELLNPDP_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" --target test_taskgraph test_serve \
    test_qos test_cancel test_resilience test_net test_router test_dist
"$TSAN_DIR"/tests/test_taskgraph
"$TSAN_DIR"/tests/test_serve
"$TSAN_DIR"/tests/test_qos
"$TSAN_DIR"/tests/test_cancel
"$TSAN_DIR"/tests/test_resilience
"$TSAN_DIR"/tests/test_net
"$TSAN_DIR"/tests/test_router
"$TSAN_DIR"/tests/test_dist

echo "verify.sh: OK"

#!/bin/sh
# The stats plane of all three processes: net-serve, net-route over it,
# and a dist-solve rank 0 of 2 waiting in its handshake for a peer that
# never starts. Against each, one `npdp top` stays attached while
# `top --once` and `top --once --prom` must still be answered.
#
# usage: stats_plane.sh NPDP DIST_PORT
#   DIST_PORT is rank 0's own peer listener (--peers rejects port 0), so
#   it must be a fixed port that nothing else binds.
set -u
NPDP=$1
DIST_PORT=$2
DIR=$(mktemp -d)
PIDS=""

cleanup() {
  for p in $PIDS; do kill "$p" 2>/dev/null; done
  for p in $PIDS; do wait "$p" 2>/dev/null; done
  rm -rf "$DIR"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

fail() {
  echo "stats_plane: $*" >&2
  for f in "$DIR"/*.log; do
    [ -s "$f" ] && { echo "--- $f" >&2; cat "$f" >&2; }
  done
  exit 1
}

# wait_for FILE WHAT: polls up to 10 s for FILE to be non-empty.
wait_for() {
  i=0
  until [ -s "$1" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "$2"
    sleep 0.1
  done
}

# start NAME ARGS...: npdp ARGS in the background; waits for its port.
start() {
  name=$1
  shift
  "$NPDP" "$@" --port-file "$DIR/$name.port" > "$DIR/$name.log" 2>&1 &
  PIDS="$PIDS $!"
  wait_for "$DIR/$name.port" "$name never wrote its port"
}

# watch NAME: with one `top` attached to NAME, `top --once` and
# `top --once --prom` exit 0; their output lands in NAME.top/NAME.prom.
watch() {
  port=$(cat "$DIR/$1.port")
  "$NPDP" top --port "$port" --interval-ms 100 > "$DIR/$1.watch" 2>&1 &
  watcher=$!
  PIDS="$PIDS $watcher"
  wait_for "$DIR/$1.watch" "$1: the attached top printed nothing"
  "$NPDP" top --port "$port" --once --timeout-ms 2000 > "$DIR/$1.top" ||
    fail "$1: top --once exited $?"
  "$NPDP" top --port "$port" --once --prom --timeout-ms 2000 \
      > "$DIR/$1.prom" || fail "$1: top --once --prom exited $?"
  kill -0 "$watcher" 2>/dev/null || fail "$1: the attached top exited"
}

start serve net-serve --port 0 --workers 2
start route net-route --port 0 --replicas "127.0.0.1:$(cat "$DIR/serve.port")"
"$NPDP" net-bench --port "$(cat "$DIR/route.port")" --connections 1 \
    --requests 20 --duration 5 --mix chain --size 24 --json-dir "$DIR" \
    > "$DIR/bench.log" 2>&1 || fail "net-bench through net-route failed"
start dist dist-solve --rank 0 --n 64 --connect-timeout-ms 60000 \
    --peers "127.0.0.1:$DIST_PORT,127.0.0.1:$((DIST_PORT + 1))" \
    --stats-port 0

watch serve
grep -q 'queue depth' "$DIR/serve.top" || fail "serve: no queue depth row"
grep -q '^cellnpdp_serve_status_ok' "$DIR/serve.prom" ||
  fail "serve: no cellnpdp_serve_status_ok sample"
watch route
grep -q 'upstream .*samples' "$DIR/route.top" ||
  fail "route: no upstream samples"
watch dist
echo "stats plane: net-serve, net-route and dist-solve all answered"

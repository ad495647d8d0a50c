#!/bin/sh
# The distributed solve across real processes: three `npdp dist-solve`
# ranks split one instance block-column-cyclically and exchange finished
# blocks as peer frames over loopback TCP. Every rank's saved table must
# be byte-identical to the one-process `npdp solve --save`. Repeated for
# every semiring, so each kernel instantiation crosses the wire.
#
# usage: dist_plane.sh NPDP PORT
#   PORT, PORT+1 and PORT+2 are the ranks' own peer listeners (--peers
#   rejects port 0), so they must be fixed ports that nothing else binds.
set -u
NPDP=$1
PORT=$2
PEERS="127.0.0.1:$PORT,127.0.0.1:$((PORT + 1)),127.0.0.1:$((PORT + 2))"
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
  echo "dist_plane: $*" >&2
  for f in "$DIR"/*.log; do
    [ -s "$f" ] && { echo "--- $f" >&2; cat "$f" >&2; }
  done
  exit 1
}

for SR in min-plus max-plus counting viterbi-log; do
  # counting overflows float fast; keep that instance tiny.
  if [ "$SR" = counting ]; then N=96; B=16; else N=512; B=64; fi
  "$NPDP" solve --n "$N" --block "$B" --semiring "$SR" \
      --save "$DIR/ref.bin" > "$DIR/ref.log" 2>&1 ||
    fail "$SR: the one-process solve failed"
  for R in 0 1 2; do
    "$NPDP" dist-solve --rank "$R" --peers "$PEERS" --n "$N" --block "$B" \
        --semiring "$SR" --stall-timeout-ms 20000 --save "$DIR/out$R.bin" \
        > "$DIR/rank$R.log" 2>&1 &
    PIDS="$PIDS $!"
  done
  # Wait for each rank in turn; the ranks not yet waited for stay in
  # PIDS, so a failure kills them.
  R=0
  for p in $PIDS; do
    wait "$p"
    rc=$?
    PIDS=${PIDS#" $p"}
    [ "$rc" -eq 0 ] || fail "$SR: rank $R exited $rc"
    R=$((R + 1))
  done
  for R in 0 1 2; do
    cmp "$DIR/out$R.bin" "$DIR/ref.bin" ||
      fail "$SR: rank $R's table differs from the one-process solve"
  done
  rm -f "$DIR"/*.bin "$DIR"/*.log
done
echo "dist plane: 3 peers x 4 semirings, every rank bit-identical"

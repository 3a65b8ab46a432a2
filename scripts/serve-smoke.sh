#!/bin/sh
# serve-smoke: end-to-end gate for the decor-serve service: boot the
# server, drive a 5-s decor-load burst, require >= 500 plans/s, a p99 of
# at most 250 ms and no errors, then verify SIGTERM drains cleanly. The
# load summary goes to a temp dir; throughput and latency are measured
# by perfbench (BENCHMARK.json), not by this smoke.
#
# Concurrency 8 is far below the default 256-deep admission queue, so any
# 5xx here is a real service bug, not deliberate load shedding.
set -eu

TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building binaries"
go build -o "$TMP/decor-serve" ./cmd/decor-serve
go build -o "$TMP/decor-load" ./cmd/decor-load

# GOMAXPROCS=4 pins the acceptance environment: the >= 500 plans/s bar must
# hold on four cores, not however many this machine has.
GOMAXPROCS=4 "$TMP/decor-serve" -addr 127.0.0.1:0 >"$TMP/serve.out" 2>&1 &
SERVER_PID=$!

# The server prints "decor-serve listening on http://HOST:PORT" once the
# listener is up; poll for it rather than sleeping a fixed amount.
URL=""
for _ in $(seq 1 50); do
    URL="$(sed -n 's/^decor-serve listening on \(.*\)$/\1/p' "$TMP/serve.out")"
    [ -n "$URL" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$TMP/serve.out"; echo "serve-smoke: server died at startup" >&2; exit 1; }
    sleep 0.1
done
[ -n "$URL" ] || { echo "serve-smoke: server never printed its address" >&2; exit 1; }
echo "serve-smoke: server up at $URL (pid $SERVER_PID)"

"$TMP/decor-load" -url "$URL" -c 8 -d 5s -unique 4 \
    -json "$TMP/load.json" -min-rps 500 -max-p99 250ms -max-errors 0

echo "serve-smoke: load floors held; sending SIGTERM"
kill -TERM "$SERVER_PID"
DRAIN_OK=1
wait "$SERVER_PID" || DRAIN_OK=0
SERVER_PID=""
if [ "$DRAIN_OK" != 1 ] || ! grep -q "drained, bye" "$TMP/serve.out"; then
    cat "$TMP/serve.out"
    echo "serve-smoke: server did not drain cleanly on SIGTERM" >&2
    exit 1
fi
echo "serve-smoke: PASS (graceful drain confirmed)"

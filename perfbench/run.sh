#!/usr/bin/env bash
# One benchmark run, from the root of a decor checkout:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# Builds decor-serve and the perfbench client from the checkout's source,
# then runs the client, whose last line of output is the JSON result.
# Build caches, binaries and span logs stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/decor-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a decor checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
# Keep the Go toolchain's caches, temporary files and settings inside the
# checkout, and never let it look for another toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

go build -o "$out/bin/decor-serve" ./cmd/decor-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --server "$out/bin/decor-serve" --spans "$out/spans" "$@"

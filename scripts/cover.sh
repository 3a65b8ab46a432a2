#!/bin/sh
# Coverage gate for the chaos-critical packages: the combined statement
# coverage of internal/sim (+invariant, +simtest) and internal/protocol
# must not drop below FLOOR. The chaos harness drives them through
# paths their own tests do not, so internal/chaos's tests run too. The
# profile goes to a temp dir.
set -e

GO=${GO:-go}
FLOOR=95.0
PKGS=decor/internal/sim,decor/internal/sim/invariant,decor/internal/sim/simtest,decor/internal/protocol

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM
PROFILE="$TMP/cover.out"

$GO test -coverprofile="$PROFILE" -coverpkg="$PKGS" ./internal/sim/... ./internal/protocol/ ./internal/chaos/ >/dev/null

TOTAL=$($GO tool cover -func="$PROFILE" | awk '/^total:/ {gsub("%", "", $3); print $3}')
echo "combined sim+protocol coverage: ${TOTAL}% (floor ${FLOOR}%)"
if awk -v t="$TOTAL" -v b="$FLOOR" 'BEGIN { exit !(t + 0 < b + 0) }'; then
	echo "coverage regression: ${TOTAL}% < ${FLOOR}%" >&2
	exit 1
fi

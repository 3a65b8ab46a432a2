#!/bin/sh
# Benchmark report and regression gate. Runs every `run` line of
# BENCH_gates.txt at its committed baseline's selection, -benchtime and
# -count, then `decor-benchjson -gate` prints each file's old-vs-new diff
# and one verdict per gate row. Exits non-zero if any run or row failed;
# a failure never skips the files after it.
#
#   sh scripts/benchstat.sh           gate the fresh runs
#   sh scripts/benchstat.sh refresh   rewrite the committed BENCH files
#                                     (`make bench-json`), only if every
#                                     run succeeded
set -u
cd "$(dirname "$0")/.."
GO=${GO:-go}
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
$GO build -o "$OUT/decor-benchjson" ./cmd/decor-benchjson || exit 1

status=0
while read -r kind file benchtime count selection pkgs; do
	[ "$kind" = run ] || continue
	# $pkgs is split into its package arguments on purpose.
	$GO test -run '^$' -bench "$selection" -benchmem -benchtime="$benchtime" \
		-count="$count" -timeout 60m $pkgs </dev/null >"$OUT/$file.txt" ||
		{ cat "$OUT/$file.txt"; status=1; }
	"$OUT/decor-benchjson" -o "$OUT/$file" <"$OUT/$file.txt" || status=1
done <BENCH_gates.txt

if [ "${1:-}" = refresh ]; then
	[ "$status" = 0 ] && cp "$OUT"/BENCH_*.json .
	exit "$status"
fi
"$OUT/decor-benchjson" -gate BENCH_gates.txt "$OUT" || status=1
exit "$status"

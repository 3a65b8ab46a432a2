#!/bin/sh
# Old-vs-new benchmark report AND the regression gates, two sections:
#
# 1. Simulator: run the simulator/chaos benches fresh (including the
#    recorder-enabled BenchmarkEngineRunRecorded), compare against the
#    committed BENCH_sim.json with decor-benchjson -diff, and FAIL if
#    the recorder-disabled hot path (BenchmarkEngineRun/actors=64)
#    regressed in mean ns/op beyond BENCH_GATE_PCT percent. The
#    recorder-enabled-vs-disabled ratio is printed as a report so the
#    cost of flight recording stays visible; only the disabled path is
#    gated (it is what every non-chaos caller pays).
#
# 2. Core placement: run the placement hot-path benches fresh
#    (BenchmarkBenefitRadius micro-benches + the 1e5-point
#    BenchmarkPlace deployments; the env-gated 1e6 sizes stay skipped
#    here — `make bench-json` refreshes those), compare against
#    BENCH_core.json, and FAIL if the 1e5 grid or centralized placement
#    regressed beyond BENCH_CORE_GATE_PCT percent or is missing from
#    either file. Full deployments are the gate (hundreds of ms per op,
#    stable at -benchtime=1x) rather than the microsecond-scale
#    micro-benches, which flap on shared hosts.
#
# 3. Selfheal allocations: gate BenchmarkChaosScenario/selfheal's
#    allocs/op against the committed baseline with a tight band
#    (BENCH_SELFHEAL_ALLOC_PCT, default 10). Allocs are deterministic
#    (pooled heartbeat boxes, flattened ledgers, reused scratch), so a
#    structural regression — a new per-round map, an unpooled payload
#    box — shows up as a jump here long before the wide ns/op gates
#    (noisy single-CPU host) could catch anything.
#
# 4. Field sessions: run the session delta benches fresh, compare
#    against BENCH_session.json, gate BenchmarkSessionDelta's ns/op
#    regression (wide band: single-iteration millisecond ops on a
#    noisy single-CPU host), and HARD-gate the structural acceptance
#    criterion — the incremental delta path must stay >= 10x fewer
#    allocs/op than a stateless full replan. Allocs are deterministic,
#    so that gate holds even when timings flap. Each method's
#    BenchmarkSessionRepair (one 1–3-failure repair on a resident
#    20000-point field) is gated on allocs/op at +10% over its baseline.
#
# 5. Serving allocations: run the end-to-end handler alloc benches
#    fresh (BenchmarkServe* in internal/service plus the delta wire
#    codec pair in internal/session), compare against
#    BENCH_serve_allocs.json, and gate allocs/op EXACTLY where the
#    number is structural — BenchmarkServePlanCacheHit (also capped at
#    a 10 allocs/request ceiling), BenchmarkServeRepairCacheHit
#    (a 900-sensor hit: per-list, not per-sensor, allocations),
#    BenchmarkServeSSEFrame and BenchmarkServeErrorBody (both must stay
#    0) — with a small band
#    (BENCH_SERVE_ALLOC_PCT, default 10) for the miss/event paths whose
#    planner work evolves field state between iterations. The delta
#    encode must also stay >= 10x fewer allocs/op than reflection
#    json.Marshal of the same delta (0 fresh allocs passes any base).
#    ns/op on the hit path is gated wide (BENCH_SERVE_GATE_PCT, default
#    60) per the noisy single-CPU host; allocs are the tight signal.
#
# Tunables: BENCH_BASELINE (default BENCH_sim.json), BENCH_CORE_BASELINE
# (default BENCH_core.json), BENCH_COUNT (samples, default 1),
# BENCH_TIME (per-bench -benchtime for the sim section, default 20x —
# enough iterations to be indicative while staying a smoke),
# BENCH_GATE_PCT (allowed regression, default 25 — wide because shared
# CI hosts show ±15% run-to-run drift; allocs/op would catch a real
# structural regression long before ns/op does), BENCH_CORE_GATE_PCT
# (default 50 — single-iteration deployment times drift more than the
# 20x-averaged engine benches), BENCH_SESSION_GATE_PCT (default 60 —
# same noisy-host reasoning, even wider because the delta op is ~1 ms).
set -e

GO=${GO:-go}
BASELINE=${BENCH_BASELINE:-BENCH_sim.json}
CORE_BASELINE=${BENCH_CORE_BASELINE:-BENCH_core.json}
SESSION_BASELINE=${BENCH_SESSION_BASELINE:-BENCH_session.json}
SERVE_ALLOC_BASELINE=${BENCH_SERVE_ALLOC_BASELINE:-BENCH_serve_allocs.json}
FRESH=${BENCH_FRESH:-$(mktemp /tmp/bench_sim_fresh.XXXXXX.json)}
CORE_FRESH=${BENCH_CORE_FRESH:-$(mktemp /tmp/bench_core_fresh.XXXXXX.json)}
SESSION_FRESH=${BENCH_SESSION_FRESH:-$(mktemp /tmp/bench_session_fresh.XXXXXX.json)}
SERVE_ALLOC_FRESH=${BENCH_SERVE_ALLOC_FRESH:-$(mktemp /tmp/bench_serve_allocs_fresh.XXXXXX.json)}
COUNT=${BENCH_COUNT:-1}
TIME=${BENCH_TIME:-20x}
GATE_PCT=${BENCH_GATE_PCT:-25}
CORE_GATE_PCT=${BENCH_CORE_GATE_PCT:-50}
SESSION_GATE_PCT=${BENCH_SESSION_GATE_PCT:-60}
SERVE_GATE_PCT=${BENCH_SERVE_GATE_PCT:-60}
SERVE_ALLOC_PCT=${BENCH_SERVE_ALLOC_PCT:-10}

for f in "$BASELINE" "$CORE_BASELINE" "$SESSION_BASELINE" "$SERVE_ALLOC_BASELINE"; do
	if [ ! -f "$f" ]; then
		echo "benchstat: baseline $f missing; run 'make bench-json' first" >&2
		exit 1
	fi
done

$GO test -run '^$' -bench 'BenchmarkEngineRun|BenchmarkEngineSchedule|BenchmarkChaosScenario' \
	-benchmem -benchtime="$TIME" -count="$COUNT" ./internal/sim/ ./internal/chaos/ |
	$GO run ./cmd/decor-benchjson -o "$FRESH"
$GO run ./cmd/decor-benchjson -diff \
	-gate 'BenchmarkEngineRun/actors=64$' -max-regress "$GATE_PCT" \
	"$BASELINE" "$FRESH"

# Recorder-enabled vs disabled: the per-event price of flight recording,
# from the fresh run so both sides saw the same machine conditions.
awk '
/"name":/ { name = $0; sub(/.*: "/, "", name); sub(/".*/, "", name) }
/"mean":/ { mean = $0; sub(/.*: /, "", mean); sub(/,.*/, "", mean)
	if (name == "BenchmarkEngineRun/actors=64") disabled = mean
	if (name == "BenchmarkEngineRunRecorded") recorded = mean }
END {
	if (disabled > 0 && recorded > 0)
		printf "tracing overhead: recorder on %.0f ns/op vs off %.0f ns/op (%.2fx) [report only]\n",
			recorded, disabled, recorded / disabled
}' "$FRESH"

# Selfheal alloc section: the protocol-layer alloc purge, pinned. The
# fresh numbers come from the sim run above, so no extra bench time.
awk -v pct="${BENCH_SELFHEAL_ALLOC_PCT:-10}" '
/"name":/ { name = $0; sub(/.*: "/, "", name); sub(/".*/, "", name) }
/"allocs_per_op":/ { a = $0; sub(/.*: /, "", a); sub(/[^0-9.].*/, "", a)
	if (name == "BenchmarkChaosScenario/selfheal") {
		if (NR == FNR) base = a + 0; else fresh = a + 0
	}
}
END {
	if (base <= 0 || fresh <= 0) {
		print "selfheal alloc gate: BenchmarkChaosScenario/selfheal missing from baseline or fresh run" > "/dev/stderr"
		exit 1
	}
	printf "selfheal allocs/op: baseline %d, fresh %d\n", base, fresh
	if (fresh > base * (1 + pct / 100)) {
		printf "selfheal alloc gate: FAIL %d allocs/op over baseline %d (+%d%% allowed)\n", fresh, base, pct > "/dev/stderr"
		exit 1
	}
}' "$BASELINE" "$FRESH"

# Core placement section: micro-benches are reported, the 1e5-point
# deployments of each method's engine are gated. Each bench is one full
# deployment per sample, so take BENCH_CORE_COUNT samples (default 3,
# ~1 s each) and gate on the mean — a single draw lands anywhere in a
# ±30% band on shared hosts. The baseline also holds env-gated 1e6
# entries; they are absent from the fresh run and fall outside the
# gate, so the diff only lists them.
CORE_COUNT=${BENCH_CORE_COUNT:-3}
$GO test -run '^$' -bench 'BenchmarkBenefitRadius|BenchmarkPlace' \
	-benchmem -benchtime=1x -count="$CORE_COUNT" ./internal/core/ |
	$GO run ./cmd/decor-benchjson -o "$CORE_FRESH"
$GO run ./cmd/decor-benchjson -diff \
	-gate 'BenchmarkPlace/pts=1e5/(grid|centralized)$' \
	-max-regress "$CORE_GATE_PCT" \
	"$CORE_BASELINE" "$CORE_FRESH"

# Field-session section: one incremental delta repair vs one stateless
# full replan on the same 1e5-point field. The delta ns/op gate is wide
# (millisecond single iterations on a noisy host); the alloc-ratio gate
# is exact — it is the structural property the session subsystem exists
# to provide, and allocs/op do not flap.
SESSION_COUNT=${BENCH_SESSION_COUNT:-3}
$GO test -run '^$' -bench 'BenchmarkSessionDelta|BenchmarkStatelessRepair|BenchmarkSessionRepair' \
	-benchmem -benchtime=1x -count="$SESSION_COUNT" ./internal/session/ |
	$GO run ./cmd/decor-benchjson -o "$SESSION_FRESH"
$GO run ./cmd/decor-benchjson -diff \
	-gate 'BenchmarkSessionDelta$' -max-regress "$SESSION_GATE_PCT" \
	"$SESSION_BASELINE" "$SESSION_FRESH"

awk '
/"name":/ { name = $0; sub(/.*: "/, "", name); sub(/".*/, "", name) }
/"allocs_per_op":/ { a = $0; sub(/.*: /, "", a); sub(/,.*/, "", a)
	if (name == "BenchmarkSessionDelta") delta = a + 0
	if (name == "BenchmarkStatelessRepair") full = a + 0 }
END {
	if (delta <= 0 || full <= 0) {
		print "session gate: missing BenchmarkSessionDelta/BenchmarkStatelessRepair allocs" > "/dev/stderr"
		exit 1
	}
	ratio = full / delta
	printf "session delta advantage: full replan %d allocs/op vs incremental %d allocs/op (%.0fx)\n", full, delta, ratio
	if (ratio < 10) {
		printf "session gate: FAIL alloc advantage %.1fx < required 10x\n", ratio > "/dev/stderr"
		exit 1
	}
}' "$SESSION_FRESH"

# Per-method repair allocs: a Voronoi repair once cost ~45k allocs
# because it rebuilt every cell; a band over the baseline keeps each
# method's repair proportional to the hole it fills.
awk -v pct=10 '
/"name":/ { name = $0; sub(/.*: "/, "", name); sub(/".*/, "", name) }
/"allocs_per_op":/ { a = $0; sub(/.*: /, "", a); sub(/[^0-9.].*/, "", a)
	if (name !~ /^BenchmarkSessionRepair\//) next
	if (NR == FNR) base[name] = a + 0; else fresh[name] = a + 0
}
END {
	split("grid-small grid-big voronoi-small voronoi-big centralized random", methods, " ")
	for (i = 1; i <= 6; i++) {
		nm = "BenchmarkSessionRepair/method=" methods[i]
		if (!(nm in base) || !(nm in fresh)) {
			printf "session repair gate: %s missing from baseline or fresh run\n", nm > "/dev/stderr"
			fail = 1
			continue
		}
		printf "%s allocs/op: baseline %d, fresh %d [+%d%% band]\n", nm, base[nm], fresh[nm], pct
		if (fresh[nm] > base[nm] * (1 + pct / 100)) {
			printf "session repair gate: FAIL %s %d allocs/op over baseline %d (+%d%% allowed)\n", nm, fresh[nm], base[nm], pct > "/dev/stderr"
			fail = 1
		}
	}
	exit fail
}' "$SESSION_BASELINE" "$SESSION_FRESH"

# Serving-alloc section: handler-level allocs/request through the real
# codecs. One combined run covers the service benches and the session
# wire-codec pair (BenchmarkDeltaEncode vs its stdlib baseline).
SERVE_ALLOC_COUNT=${BENCH_SERVE_ALLOC_COUNT:-3}
$GO test -run '^$' -bench 'BenchmarkServePlanCacheHit|BenchmarkServeRepairCacheHit|BenchmarkServePlanCacheMiss|BenchmarkServeFieldEvent|BenchmarkServeSSEFrame|BenchmarkServeErrorBody|BenchmarkDeltaEncode' \
	-benchmem -benchtime=50x -count="$SERVE_ALLOC_COUNT" ./internal/service/ ./internal/session/ |
	$GO run ./cmd/decor-benchjson -o "$SERVE_ALLOC_FRESH"
$GO run ./cmd/decor-benchjson -diff \
	-gate 'BenchmarkServePlanCacheHit$' -max-regress "$SERVE_GATE_PCT" \
	"$SERVE_ALLOC_BASELINE" "$SERVE_ALLOC_FRESH"

awk -v pct="$SERVE_ALLOC_PCT" '
/"name":/ { name = $0; sub(/.*: "/, "", name); sub(/".*/, "", name) }
/"allocs_per_op":/ { a = $0; sub(/.*: /, "", a); sub(/[^0-9.].*/, "", a)
	if (NR == FNR) base[name] = a + 0; else fresh[name] = a + 0
}
function have(nm) {
	if ((nm in base) && (nm in fresh)) return 1
	printf "serve alloc gate: %s missing from baseline or fresh run\n", nm > "/dev/stderr"
	fail = 1
	return 0
}
END {
	# Exact gates: these allocs/op are structural (pooled buffers, no
	# data-dependent work), so any drift is a leak. Round to absorb the
	# rare mid-run sync.Pool flush (a fraction of an alloc on average).
	split("BenchmarkServePlanCacheHit BenchmarkServeRepairCacheHit BenchmarkServeSSEFrame BenchmarkServeErrorBody", exact, " ")
	for (i in exact) {
		nm = exact[i]
		if (!have(nm)) continue
		b = int(base[nm] + 0.5); f = int(fresh[nm] + 0.5)
		printf "%s allocs/op: baseline %d, fresh %d [exact]\n", nm, b, f
		if (f != b) {
			printf "serve alloc gate: FAIL %s %d allocs/op != baseline %d\n", nm, f, b > "/dev/stderr"
			fail = 1
		}
	}
	# The ISSUE acceptance ceiling, independent of what the baseline says.
	if (("BenchmarkServePlanCacheHit" in fresh) && fresh["BenchmarkServePlanCacheHit"] > 10) {
		printf "serve alloc gate: FAIL cache-hit /v1/plan %.1f allocs/request > 10\n", fresh["BenchmarkServePlanCacheHit"] > "/dev/stderr"
		fail = 1
	}
	# Banded gates: the planner evolves field state across iterations, so
	# these carry small data-dependent variance.
	split("BenchmarkServePlanCacheMiss BenchmarkServeFieldEvent", banded, " ")
	for (i in banded) {
		nm = banded[i]
		if (!have(nm)) continue
		printf "%s allocs/op: baseline %d, fresh %d [+%d%% band]\n", nm, base[nm], fresh[nm], pct
		if (fresh[nm] > base[nm] * (1 + pct / 100)) {
			printf "serve alloc gate: FAIL %s %d allocs/op over baseline %d (+%d%% allowed)\n", nm, fresh[nm], base[nm], pct > "/dev/stderr"
			fail = 1
		}
	}
	# Delta wire encode: >= 10x fewer allocs than reflection json.Marshal
	# of the same delta. The hand encoder is 0 allocs/op steady-state,
	# which passes against any stdlib baseline.
	if (have("BenchmarkDeltaEncode") && have("BenchmarkDeltaEncodeStdlib")) {
		enc = fresh["BenchmarkDeltaEncode"]; std = fresh["BenchmarkDeltaEncodeStdlib"]
		printf "delta encode: hand %d allocs/op vs json.Marshal %d allocs/op\n", enc, std
		if (enc * 10 > std) {
			printf "serve alloc gate: FAIL delta encode %d allocs/op not 10x under stdlib %d\n", enc, std > "/dev/stderr"
			fail = 1
		}
	}
	exit fail
}' "$SERVE_ALLOC_BASELINE" "$SERVE_ALLOC_FRESH"

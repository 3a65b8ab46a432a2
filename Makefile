# DECOR reproduction — convenience targets.

GO ?= go

.PHONY: all build vet fmt-check test test-short check bench bench-json bench-large serve-smoke chaos-smoke session-smoke snapshot-smoke cover figures extensions summary clean

all: build vet test

# The CI gate: static analysis, gofmt-clean sources, the full suite
# under the race detector (the obs registry, tracer, flight recorder,
# engine instrumentation and the shard worker pool are concurrent), the
# perfbench harness's own vet and tests (its go.mod keeps it out of the
# root ./... patterns, though it builds against this module), a
# one-iteration bench smoke so the benchmarks never rot, the benchmark
# gates of BENCH_gates.txt (scripts/benchstat.sh: every row checked
# against the committed BENCH_*.json baselines), the large-placement
# pins (bench-large), the decor-serve end-to-end smoke (throughput +
# graceful drain), the chaos sweep (invariants + determinism under fault
# injection), and the field-session soak (byte-identical delta streams
# across two seeded multi-tenant runs; see session-smoke).
check:
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...
	GO=$(GO) sh scripts/benchstat.sh
	$(MAKE) bench-large
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) snapshot-smoke
	$(MAKE) session-smoke

# Formatting gate: fails when gofmt would change any file.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Large-placement pins: the 1e5-point BenchmarkPlace deployments of
# grid-small and the centralized greedy, run under the race detector,
# must reproduce the SHA-256 digests of their placements
# (TestPlaceLargeGolden). Bounded wall-clock via -timeout; the full 1e6
# benchmarks stay behind DECOR_PLACE_LARGE=1 in `make bench-json`.
bench-large:
	DECOR_BENCH_LARGE=1 $(GO) test -race -run '^TestPlaceLargeGolden$$' -timeout 600s ./internal/core/

# Chaos property gate: sweep 16 seeds per architecture under the race
# detector, each run repeated to verify a byte-identical replay. The
# sweep shards seeds across GOMAXPROCS workers (per-shard engines,
# deterministic merge — output is byte-identical to -parallel 1). Any
# invariant violation, non-convergence, or replay divergence exits
# non-zero. Replay an individual failure with the seed it prints, e.g.
# `go run ./cmd/decor-chaos -arch grid -seed 7`.
chaos-smoke:
	$(GO) run -race ./cmd/decor-chaos -arch all -seeds 16

# Snapshot/differential gate: the checkpoint parity suite (snapshot ->
# restore -> run-to-end must be byte-equal to the straight run for every
# architecture at randomized cut points, second-generation resumes
# included), the typed-rejection corruption matrix, and the snapshot
# fuzz seed corpus, all under the race detector (DESIGN.md §15).
snapshot-smoke:
	$(GO) test -race -run '^TestCheckpointedRunMatchesStraightRun$$|^TestResumeParity$$|^TestResumeEmitsFurtherCheckpoints$$|^TestResumeRejectsCorruption$$|^FuzzSnapshotRoundTrip$$' -count=1 -timeout 300s ./internal/chaos/

# Field-session soak: a seeded multi-tenant event storm (concurrent
# NDJSON streams, mid-stream evict/restore) run twice under the race
# detector, asserting the two runs produce byte-identical delta streams
# — the session subsystem's determinism contract end to end (DESIGN.md
# §14). Quota isolation, the fast-restore differential (binary restore
# byte-equal to replay restore), and cross-manager migration parity
# (Export/Import mid-stream, DESIGN.md §15) are asserted in the same
# package run.
session-smoke:
	$(GO) test -race -run '^TestSessionSoak$$|^TestSoakQuotaIsolation$$|^TestFastRestoreMatchesReplay$$|^TestSessionMigrationDeltaParity$$' -count=1 -timeout 300s ./internal/session/

# Coverage gate: combined statement coverage of internal/sim and
# internal/protocol must stay at or above the post-chaos-PR baseline
# (scripts/cover.sh, default floor 95%).
cover:
	sh scripts/cover.sh

# End-to-end service gate: boot decor-serve on GOMAXPROCS=4, drive a
# 5-s decor-load burst (>= 500 plans/s, p99 <= 250 ms, zero errors), and
# assert SIGTERM drains cleanly. It writes nothing into the checkout.
serve-smoke:
	sh scripts/serve-smoke.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# One benchmark per paper figure plus the ablations.
bench:
	$(GO) test -bench . -benchmem ./...

# Refresh the committed BENCH_*.json baselines through the run lines of
# BENCH_gates.txt, with DECOR_PLACE_LARGE=1 so BENCH_core.json also
# carries the 1e6-point placements.
bench-json:
	DECOR_PLACE_LARGE=1 GO=$(GO) sh scripts/benchstat.sh refresh

# Regenerate the paper's evaluation tables (full parameters, ~4 s).
figures:
	$(GO) run ./cmd/decor-bench -fig all

# The extension experiments (ablations + validations, ~10 s).
extensions:
	$(GO) run ./cmd/decor-bench -fig ext

# Paper-vs-measured claim check.
summary:
	$(GO) run ./cmd/decor-bench -fig summary

# The illustration figures as SVG.
figs4to6:
	$(GO) run ./cmd/decor-field -what points  -o fig4.svg
	$(GO) run ./cmd/decor-field -what deploy  -o fig5.svg
	$(GO) run ./cmd/decor-field -what failure -o fig6.svg

clean:
	rm -f fig4.svg fig5.svg fig6.svg test_output.txt bench_output.txt

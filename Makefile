# DECOR reproduction — convenience targets.

GO ?= go

.PHONY: all build vet fmt-check test test-short check bench bench-json bench-large serve-smoke chaos-smoke session-smoke gate-smoke fuzz-smoke cover figures extensions summary clean

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
# injection), the field-session soak (byte-identical delta streams
# across two seeded multi-tenant runs; see session-smoke), the admission
# gate's concurrency tests ten times over (gate-smoke), a fixed number of
# fresh inputs for the decode parity fuzzers and the deployment-snapshot
# reader (fuzz-smoke), and the sim+protocol statement-coverage floor
# (cover).
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
	$(MAKE) session-smoke
	$(MAKE) gate-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) cover

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
# sweep shards seeds across GOMAXPROCS workers (one engine per run,
# reports printed in sweep order — output is byte-identical to a
# sequential sweep). Any invariant violation, non-convergence, or replay
# divergence exits non-zero. Replay an individual failure with the seed it prints, e.g.
# `go run ./cmd/decor-chaos -arch grid -seed 7`.
chaos-smoke:
	$(GO) run -race ./cmd/decor-chaos -arch all -seeds 16

# Field-session soak: a seeded multi-tenant event storm (concurrent
# NDJSON streams, mid-stream evict/restore) run twice under the race
# detector, asserting the two runs produce byte-identical delta streams
# — the session subsystem's determinism contract end to end (DESIGN.md
# §14). Quota isolation, the per-field locks (a held field blocks only
# itself; the admission bound answers ErrSaturated), the sealed record
# (a restored session byte-equal to the replay oracle, a damaged record
# a restore error, an evicted field's metadata unchanged) and the
# bound on a session's state (heap and record flat over 1e5 events) are
# asserted in the same package run.
session-smoke:
	$(GO) test -race -run '^TestSessionSoak$$|^TestSoakQuotaIsolation$$|^TestBusyFieldBlocksOnlyItself$$|^TestAdmissionBoundSaturates$$|^TestRestoreMatchesReplay$$|^TestDamagedRecordFailsRestore$$|^TestSessionStateBoundedByField$$|^TestEvictedGetReportsTheField$$' -count=1 -timeout 300s ./internal/session/

# Admission gates (internal/admit): plans and repairs pass one, field
# sessions another. A gate's books balance under concurrent Enter/Run/
# Done/Leave with refusals mixed in and Close landing mid-burst; a field
# event does not wait for the plans' run slots; a plan that panics gives
# back its admission and run slot; a plan cut off or refused by a drain
# gets 503 with Retry-After; a mixed overload burst leaves the books
# empty and no goroutine behind; oversized or cut-off bodies leave no
# cache entry or goroutine behind; a drain wakes an events stream
# blocked reading its body and refuses later ones without a panic on
# their connections; a drain ends an SSE feed
# blocked writing to a client that stopped reading; and an NDJSON client
# that hangs up mid-stream leaves the sessions' gate books empty and no
# handler or goroutine behind. Each test runs ten times under the race
# detector.
gate-smoke:
	$(GO) test -race -count=10 -run '^TestGateBooksBalanceUnderConcurrency$$|^TestCloseDrainsAdmittedCalls$$' -timeout 300s ./internal/admit/
	$(GO) test -race -count=10 -run '^TestFieldEventsDoNotWaitBehindPlans$$|^TestPanickingPlanReleasesItsSlot$$|^TestPlanDrainRefusalsCarryRetryAfter$$|^TestOverloadBurstLeavesNothingBehind$$|^TestBadBodiesLeaveNothingBehind$$|^TestEndStreamsWakesEventStreams$$|^TestEndStreamsEndsStalledSSE$$' -timeout 300s ./internal/service/
	$(GO) test -race -count=10 -run '^TestVanishedNDJSONClientLeavesNothingBehind$$' -timeout 300s ./internal/session/

# Fuzz smoke: the parity fuzzers of the number and string readers, the
# request decoders and the event-stream scanner each run 20000 generated
# inputs past their committed corpora, so the one decoder keeps being
# explored against its oracles (the number() + strconv readers,
# encoding/json plus the key rules); so does the reader of sealed
# deployment snapshots (a typed error or a restore that re-snapshots to
# the same bytes, never a panic). A failing input is written under the
# package's testdata/fuzz/ for replay with plain `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreDeployment$$' -fuzztime 20000x ./
	$(GO) test -run '^$$' -fuzz '^FuzzDecNumberParity$$' -fuzztime 20000x ./internal/jsonx/
	$(GO) test -run '^$$' -fuzz '^FuzzDecStringParity$$' -fuzztime 20000x ./internal/jsonx/
	$(GO) test -run '^$$' -fuzz '^FuzzRequestDecodeParity$$' -fuzztime 20000x ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRepairRequest$$' -fuzztime 20000x ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzEventStreamParity$$' -fuzztime 20000x ./internal/service/

# Coverage gate: combined statement coverage of internal/sim (with
# invariant and simtest) and internal/protocol, exercised by their own
# tests and by internal/chaos's suite, must stay at or above the 95%
# floor in scripts/cover.sh.
cover:
	GO=$(GO) sh scripts/cover.sh

# End-to-end service gate: boot decor-serve on GOMAXPROCS=4, drive a
# 5-s decor-load burst (>= 500 plans/s, p99 <= 250 ms, zero errors), and
# assert SIGTERM drains cleanly. It writes nothing into the checkout.
serve-smoke:
	GO=$(GO) sh scripts/serve-smoke.sh

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

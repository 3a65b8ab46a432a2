// Command decor-serve exposes the DECOR planner as a long-running HTTP
// JSON service (see internal/service and DESIGN.md §9).
//
//	POST /v1/plan                     field + sensors + k + method → placement plan
//	POST /v1/repair                   deployment + failed IDs      → restoration plan
//	POST /v1/fields                   create a stateful field session (201 + initial delta)
//	POST /v1/fields/{id}/events       stream NDJSON failure events in, delta plans out
//	GET  /v1/fields/{id}/stream       live SSE delta feed (?from_seq= ring replay)
//	GET  /v1/fields/{id}              session metadata
//	DELETE /v1/fields/{id}            drop the session
//	GET  /healthz                     liveness (503 while draining)
//	GET  /metrics                     live Prometheus scrape
//
// Examples:
//
//	decor-serve -addr :8080
//	decor-serve -addr 127.0.0.1:0 -timeout 500ms -session-idle-ttl 10m
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops accepting,
// the field streams end (an SSE feed closes; an NDJSON events stream
// answers "server shutting down", in-band once it has sent a delta),
// in-flight plans run to completion (bounded by -drain-timeout), then
// the process exits 0.
//
// Every response carries its trace ID in X-Decor-Trace; GET /debug/traces
// serves recent span trees (summarizable offline with decor-trace) and
// GET /debug/flight the structured flight-recorder events. SIGQUIT dumps
// both to stderr without stopping the server. -pprof additionally mounts
// net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"decor/internal/obs"
	"decor/internal/service"
	"decor/internal/session"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the chosen address is printed)")
		maxBody      = flag.Int64("max-body", 0, "request body size cap in bytes (0 = default 1 MiB); larger bodies get 413")
		maxPoints    = flag.Int("max-points", 0, "per-request num_points cap (0 = default)")
		maxSensors   = flag.Int("max-sensors", 0, "per-request sensors+scatter cap (0 = default)")
		defTimeout   = flag.Duration("timeout", 0, "default per-request planning deadline (0 = built-in default)")
		maxTimeout   = flag.Duration("max-timeout", 0, "ceiling on client-requested timeout_ms (0 = built-in default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a TERM/INT drain may take before in-flight plans are aborted")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceCap     = flag.Int("trace-cap", 4096, "trace ring capacity in spans (rounded up to a power of two)")

		sessMax       = flag.Int("session-max", 0, "global live field-session cap (0 = default 4096)")
		sessMaxTenant = flag.Int("session-max-per-tenant", 0, "per-tenant field-session cap (0 = default 64); excess creates get 429")
		sessIdleTTL   = flag.Duration("session-idle-ttl", 0, "idle time before a session is snapshotted and evicted (0 = never evict idle sessions)")
	)
	var ofl obs.RunFlags
	ofl.Register(flag.CommandLine)
	flag.Parse()
	if err := ofl.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := ofl.Finish(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	tracer := obs.NewTracer(*traceCap)
	svc := service.New(service.Config{
		Limits: service.Limits{
			MaxBodyBytes:   *maxBody,
			MaxPoints:      *maxPoints,
			MaxSensors:     *maxSensors,
			DefaultTimeout: *defTimeout,
			MaxTimeout:     *maxTimeout,
		},
		Sessions: session.Config{
			MaxSessions:          *sessMax,
			MaxSessionsPerTenant: *sessMaxTenant,
			IdleTTL:              *sessIdleTTL,
		},
		Tracer:      tracer,
		EnablePprof: *enablePprof,
	})

	// Install every signal handler before the listener exists: a TERM
	// that arrives right after the readiness line must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Parseable by scripts (serve-smoke) and humans alike; with -addr :0
	// this is the only way to learn the port.
	fmt.Printf("decor-serve listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Shutdown waits for every handler, and a field stream's handler
	// ends only when its stream does: end them as the drain starts.
	httpSrv.RegisterOnShutdown(svc.EndStreams)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SIGQUIT is a live post-mortem, not a shutdown: dump the flight
	// recorder and recent traces to stderr and keep serving.
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "decor-serve: SIGQUIT flight timeline (newest 100):")
			obs.WriteTimeline(os.Stderr, obs.Tail(svc.Config().Flight.Dump(), 100))
			fmt.Fprintln(os.Stderr, "decor-serve: recent traces:")
			for i, ts := range tracer.Summaries() {
				if i >= 20 {
					break
				}
				fmt.Fprintf(os.Stderr, "  %s %-12s %8.3fms %d spans\n",
					ts.Trace, ts.Root, float64(ts.DurNS)/1e6, ts.Spans)
			}
		}
	}()

	select {
	case s := <-sig:
		fmt.Printf("decor-serve: %s, draining (max %s)\n", s, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Drain order matters: stop the listener, end the field streams and
	// wait for in-flight handlers (which plan on their own goroutines),
	// then drain the admission gate.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "decor-serve: http shutdown: %v\n", err)
		code = 1
	}
	if err := svc.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "decor-serve: service shutdown: %v\n", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	if code == 0 {
		fmt.Println("decor-serve: drained, bye")
	}
	return code
}

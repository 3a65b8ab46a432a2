package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// promContentType is the Prometheus text exposition content type the
// registry renders (version 0.0.4).
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler that serves the registry as a live
// Prometheus scrape endpoint: every GET renders a fresh Snapshot, so a
// scraper sees the counters move while a run is in flight — unlike the
// -metrics flag, which only dumps once at process exit. The handler is
// safe for concurrent scrapes (Snapshot holds the registry's read lock
// and each histogram's mutex only while it copies that histogram).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", promContentType)
		if req.Method == http.MethodHead {
			return
		}
		// A write error means the scraper hung up; there is no one left
		// to report it to.
		_ = r.WritePrometheus(w)
	})
}

// DebugHandler serves the tracer's ring — what decor-serve mounts at
// /debug/traces:
//
//	GET /debug/traces                 recent trace summaries (JSON array)
//	GET /debug/traces?trace=<hex id>  every span of one trace (JSON array)
//	GET /debug/traces?format=jsonl    the whole ring as JSONL (decor-trace input)
//
// The ?trace form is the drill-down behind the X-Decor-Trace response
// header: paste the header value in and the full span tree comes back.
func (t *Tracer) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		if q.Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
			if req.Method == http.MethodHead {
				return
			}
			_ = t.WriteJSONL(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if idStr := q.Get("trace"); idStr != "" {
			id, err := ParseTraceID(idStr)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			spans := t.Trace(id)
			if len(spans) == 0 {
				http.Error(w, "trace not found (evicted from the ring or never recorded)", http.StatusNotFound)
				return
			}
			_ = enc.Encode(spans)
			return
		}
		sums := t.Summaries()
		if n, err := strconv.Atoi(q.Get("n")); err == nil && n > 0 && n < len(sums) {
			sums = sums[:n]
		}
		_ = enc.Encode(sums)
	})
}

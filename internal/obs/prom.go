package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, cumulative
// histogram buckets with le labels, series sorted by (family, labels).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders a captured snapshot; see Registry.WritePrometheus.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFam := ""
	for _, name := range sortedSeries(s.Counters) {
		if fam := seriesFamily(name); fam != lastFam {
			fmt.Fprintf(bw, "# TYPE %s counter\n", fam)
			lastFam = fam
		}
		fmt.Fprintf(bw, "%s %d\n", name, s.Counters[name])
	}
	// Gauges and histograms carry no labels: one family per series.
	for _, name := range sortedSeries(s.Gauges) {
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(s.Gauges[name]))
	}
	for _, name := range sortedSeries(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum uint64
		for i, ub := range h.Buckets {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatFloat(ub), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", name, h.Count)
	}
	return bw.Flush()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

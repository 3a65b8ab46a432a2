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
	lastFam = ""
	for _, name := range sortedSeries(s.Gauges) {
		if fam := seriesFamily(name); fam != lastFam {
			fmt.Fprintf(bw, "# TYPE %s gauge\n", fam)
			lastFam = fam
		}
		fmt.Fprintf(bw, "%s %s\n", name, formatFloat(s.Gauges[name]))
	}
	lastFam = ""
	for _, name := range sortedSeries(s.Histograms) {
		h := s.Histograms[name]
		if fam := seriesFamily(name); fam != lastFam {
			fmt.Fprintf(bw, "# TYPE %s histogram\n", fam)
			lastFam = fam
		}
		// A labeled histogram series must splice le into its label set.
		base, labels := name, ""
		if i := len(seriesFamily(name)); i < len(name) {
			base = name[:i]
			labels = name[i+1:len(name)-1] + "," // strip {}, keep pairs
		}
		var cum uint64
		for i, ub := range h.Buckets {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{%sle=%q} %d\n", base, labels, formatFloat(ub), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, h.Count)
		fmt.Fprintf(bw, "%s_sum%s %s\n", base, suffixLabels(labels), formatFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count%s %d\n", base, suffixLabels(labels), h.Count)
	}
	return bw.Flush()
}

// suffixLabels turns the spliceable "k=\"v\"," pair string back into a
// standalone `{k="v"}` suffix ("" stays "").
func suffixLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels[:len(labels)-1] + "}"
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

package obs

import (
	"sort"
	"strings"
	"sync"
)

// LabelSet is an interned, canonically rendered set of label key/value
// pairs — the low-alloc handle hot paths attach to an instrument lookup.
// Interning happens once per distinct pair list (Registry.Labels); after
// that the handle is a single pre-rendered string, instrument lookup is
// one map probe, and updates on the returned instrument are the same
// atomics as unlabeled metrics. The zero LabelSet means "no labels".
type LabelSet struct {
	expo string // `{k="v",k2="v2"}` in canonical key order; "" = unlabeled
}

// String returns the rendered exposition suffix (empty for no labels).
func (ls LabelSet) String() string { return ls.expo }

// Labels interns a key/value pair list into a LabelSet. Keys are
// sanitized to the Prometheus label alphabet and sorted; values are
// escaped. Interning is memoized on the raw input, so a hot caller
// passing the same pairs repeatedly pays one read-locked map probe and
// zero allocations after the first call — but callers that can cache the
// LabelSet (or the instrument itself) should.
func (r *Registry) Labels(kv ...string) LabelSet {
	if len(kv) == 0 {
		return LabelSet{}
	}
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	key := strings.Join(kv, "\x00")
	r.lmu.RLock()
	ls, ok := r.interned[key]
	r.lmu.RUnlock()
	if ok {
		return ls
	}
	ls = renderLabels(kv)
	r.lmu.Lock()
	if prev, ok := r.interned[key]; ok {
		ls = prev
	} else {
		r.interned[key] = ls
	}
	r.lmu.Unlock()
	return ls
}

// renderLabels builds the canonical `{k="v",...}` suffix: keys
// sanitized and sorted, values escaped per the Prometheus text format.
func renderLabels(kv []string) LabelSet {
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{sanitizeLabelKey(kv[i]), kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		escapeLabelValue(&sb, p.v)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return LabelSet{expo: sb.String()}
}

// sanitizeLabelKey maps a label name onto [a-zA-Z0-9_] (the label
// alphabet excludes the colon metric names allow).
func sanitizeLabelKey(k string) string {
	if k == "" {
		return "_"
	}
	clean := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		ok := c == '_' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			('0' <= c && c <= '9' && i > 0)
		if !ok {
			clean = false
			break
		}
	}
	if clean {
		return k
	}
	b := []byte(k)
	for i, c := range b {
		ok := c == '_' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			('0' <= c && c <= '9' && i > 0)
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

// escapeLabelValue writes v with the text-format escapes (backslash,
// double quote, newline).
func escapeLabelValue(sb *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
}

// CounterL returns the counter for name with the given labels, creating
// the series on first use. Callers on hot paths should cache the result:
// the returned *Counter is the stable handle, and Inc/Add on it are
// single atomics.
func (r *Registry) CounterL(name string, ls LabelSet) *Counter {
	return r.getCounter(sanitizeName(name) + ls.expo)
}

// MaxTenantLabels caps the distinct tenant label values one TenantLabels
// hands out.
const MaxTenantLabels = 64

// TenantLabels maps raw tenant names onto a bounded set of label values,
// so a label-spraying client cannot grow a registry without bound: the
// first MaxTenantLabels distinct tenants keep their name, later ones fold
// into "other", and the empty tenant reads "none". Each owner keeps its
// own instance. The zero value is ready to use and safe for concurrent
// use.
type TenantLabels struct {
	mu   sync.Mutex
	seen map[string]bool
}

// Label returns the label value for tenant raw.
func (t *TenantLabels) Label(raw string) string {
	if raw == "" {
		return "none"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen[raw] {
		return raw
	}
	if len(t.seen) >= MaxTenantLabels {
		return "other"
	}
	if t.seen == nil {
		t.seen = map[string]bool{}
	}
	t.seen[raw] = true
	return raw
}

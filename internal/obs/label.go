package obs

import (
	"strings"
	"sync"
)

// CounterL returns the counter for name with the label key/value pairs
// kv, creating the series on first use. Keys render in the order given,
// so a caller passes them sorted; values are escaped. Each call renders
// the series key, so callers on hot paths resolve the *Counter once and
// keep it: Inc/Add on it are single atomics.
func (r *Registry) CounterL(name string, kv ...string) *Counter {
	if len(kv)%2 != 0 {
		panic("obs: CounterL needs key/value pairs")
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		escapeLabelValue(&sb, kv[i+1])
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return r.Counter(sb.String())
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

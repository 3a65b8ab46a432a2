package service

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"decor/internal/obs"
)

// promLine is the text exposition's line grammar: a # TYPE line, or a
// sample with an optional set of quoted, escaped label values and one
// value.
var promLine = regexp.MustCompile(`^(?:# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|histogram)|` +
	`[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (\S+))$`)

// checkExposition fails t on every line of a scrape that does not parse
// under promLine with a numeric sample value.
func checkExposition(t *testing.T, what string, scrape []byte) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(string(scrape), "\n"), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%s: malformed line %q", what, line)
		} else if _, err := strconv.ParseFloat(m[1], 64); m[1] != "" && err != nil {
			t.Errorf("%s: sample value in %q: %v", what, line, err)
		}
	}
}

// obsNames returns the metric names internal/obs/default.go declares.
func obsNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../obs/default.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						names = append(names, name)
					}
				}
			}
		}
	}
	return names
}

// TestServeExposition: a fresh server's scrape parses under the strict
// grammar and announces every decor_serve_* and unlabeled
// decor_session_* instrument at zero. After a plan, a field event and a
// tenant whose value needs escaping, the scrape still parses and
// announces the labeled series too (TestDefaultExposition covers the
// other names in internal/obs/default.go).
func TestServeExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	scrape := func() []byte {
		t.Helper()
		status, _, body := s.do(t, "GET", "/metrics", "", "")
		if status != http.StatusOK {
			t.Fatalf("/metrics: %d", status)
		}
		return body
	}
	labeled := map[string]bool{obs.ServeResponses: true, obs.SessionTenantCreated: true, obs.SessionTenantDeltas: true}
	var names []string
	for _, name := range obsNames(t) {
		if strings.HasPrefix(name, "decor_serve_") || strings.HasPrefix(name, "decor_session_") {
			names = append(names, name)
		}
	}
	fresh := scrape()
	checkExposition(t, "fresh", fresh)
	for _, name := range names {
		if announced := bytes.Contains(fresh, []byte("# TYPE "+name+" ")); announced == labeled[name] {
			t.Errorf("fresh scrape: # TYPE line for %s: %v, want %v", name, announced, !labeled[name])
		}
	}

	const tenant = `a"b\c`
	if status, _, body := s.do(t, "POST", "/v1/plan", tenant, planBody(1)); status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, body)
	}
	if status, _, body := s.do(t, "POST", "/v1/fields", tenant, fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, _, body := s.do(t, "POST", "/v1/fields/f/events", tenant, `{"failed":[1]}`); status != http.StatusOK {
		t.Fatalf("event: %d %s", status, body)
	}
	after := scrape()
	checkExposition(t, "after requests", after)
	for _, name := range names {
		if !bytes.Contains(after, []byte("# TYPE "+name+" ")) {
			t.Errorf("scrape after requests: no # TYPE line for %s", name)
		}
	}
	if want := `decor_session_tenant_deltas_total{tenant="a\"b\\c"} 1`; !bytes.Contains(after, []byte(want+"\n")) {
		t.Errorf("scrape after requests lacks %s", want)
	}
}

// TestLongTenantRefused: an X-Decor-Tenant longer than maxTenantLen gets
// 400 on every route that reads the header, before anything keys on it.
// After a burst of distinct 64 KB tenants the scrape holds none of them,
// counts each response under tenant "other", and stays small.
func TestLongTenantRefused(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	reqs := []struct{ method, path, body string }{
		{"POST", "/v1/plan", planBody(1)},
		{"GET", "/v1/plan", ""},
		{"POST", "/v1/repair", repairBody(40)},
		{"GET", "/v1/repair", ""},
		{"POST", "/v1/fields", fieldBody("g", 8)},
		{"POST", "/v1/fields/f/events", `{"failed":[1]}`},
		{"GET", "/v1/fields/f/stream", ""},
		{"GET", "/v1/fields/f", ""},
		{"DELETE", "/v1/fields/f", ""},
	}
	var tenants []string
	for i, rq := range reqs {
		tenant := strings.Repeat(string(rune('a'+i)), 64<<10)
		tenants = append(tenants, tenant)
		if status, _, body := s.do(t, rq.method, rq.path, tenant, rq.body); status != http.StatusBadRequest {
			t.Errorf("%s %s with a 64 KB tenant: %d %s, want 400", rq.method, rq.path, status, body)
		}
	}
	if status, _, body := s.do(t, "GET", "/v1/fields/f", "t", ""); status != http.StatusOK {
		t.Errorf("the field after the burst: %d %s, want 200", status, body)
	}

	_, _, scrape := s.do(t, "GET", "/metrics", "", "")
	if len(scrape) >= 64<<10 {
		t.Errorf("scrape after the burst is %d bytes, want under 64 KB", len(scrape))
	}
	for _, tenant := range tenants {
		if bytes.Contains(scrape, []byte(tenant[:maxTenantLen+1])) {
			t.Errorf("scrape holds a tenant of %q", tenant[:1])
		}
	}
	var other int64
	for key, n := range s.reg.Snapshot().Counters {
		if strings.HasPrefix(key, obs.ServeResponses+"{") && strings.HasSuffix(key, `,status="400",tenant="other"}`) {
			other += n
		}
	}
	if other != int64(len(reqs)) {
		t.Errorf("responses counted under tenant other with status 400: %d, want %d", other, len(reqs))
	}
}

package session_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decor/internal/admit"
	"decor/internal/obs"
	"decor/internal/service"
	"decor/internal/session"
)

// TestSaturatedCallIs503: a call past the session manager's admission
// bound reaches the HTTP client as 503 with Retry-After, and the field
// answers again once the bound has room.
func TestSaturatedCallIs503(t *testing.T) {
	g := admit.New(1)
	restore := session.UseGate(g)
	svc := service.New(service.Config{Registry: obs.NewRegistry()})
	restore()
	defer svc.Shutdown(context.Background())
	h := svc.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("X-Decor-Tenant", "t")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	field := `{"field_id":"f","field_side":30,"k":1,"rs":4,"num_points":200,"seed":1,"scatter":20,"method":"centralized"}`
	if rec := do("POST", "/v1/fields", field); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}

	held := 0
	for g.Enter("") == nil {
		held++
	}
	rec := do("POST", "/v1/fields/f/events", `{"failed":[1]}`)
	for ; held > 0; held-- {
		g.Leave("")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("event past the admission bound: status %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}
	if rec := do("POST", "/v1/fields/f/events", `{"failed":[1]}`); rec.Code != http.StatusOK {
		t.Errorf("event with room under the bound: %d %s", rec.Code, rec.Body)
	}
}

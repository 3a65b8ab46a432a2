package session_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestVanishedNDJSONClientLeavesNothingBehind: a client that streams
// one failure event over a real connection, reads its delta and hangs
// up with its body unfinished leaves nothing behind. The events handler
// returns, the next request's event on the same field is served as the
// field's second delta, the sessions' gate books are empty, and after
// Shutdown no goroutine outlives the server.
func TestVanishedNDJSONClientLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	g := admit.New(1)
	restore := session.UseGate(g)
	svc := service.New(service.Config{Registry: obs.NewRegistry()})
	restore()
	h := svc.Handler()
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			returned <- struct{}{}
		}
	}))
	// Close waits for every handler, so a stuck one would hang the test
	// instead of failing it.
	stuck := false
	defer func() {
		if !stuck {
			ts.Close()
		}
	}()
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

	// A chunked body whose first chunk carries one event; no last chunk
	// ever follows.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	event := `{"failed":[1]}` + "\n"
	if _, err := fmt.Fprintf(conn, "POST /v1/fields/f/events HTTP/1.1\r\nHost: decor\r\nX-Decor-Tenant: t\r\n"+
		"Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n", len(event), event); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d, want 200", resp.StatusCode)
	}
	delta, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(delta, `"seq":1,`) {
		t.Fatalf("first delta %q, err %v; want seq 1", delta, err)
	}
	conn.Close()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		stuck = true
		t.Fatal("the events handler did not return after its client hung up")
	}

	if rec := do("POST", "/v1/fields/f/events", `{"failed":[2]}`); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"seq":2,`) {
		t.Errorf("the next event: %d %s; want 200 and seq 2", rec.Code, rec.Body)
	}

	// The books: the whole admitted bound, the tenant's whole share and
	// the run slot are free again.
	for tenant, want := range map[string]int{"": admit.Depth, "t": admit.Depth / 4} {
		n := 0
		for g.Enter(tenant) == nil {
			n++
		}
		for i := 0; i < n; i++ {
			g.Leave(tenant)
		}
		if n != want {
			t.Errorf("tenant %q: %d admissions free, want %d", tenant, n, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Run(ctx); err != nil {
		t.Fatalf("the run slot is still held: %v", err)
	}
	g.Done()

	ts.Close()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before the server", runtime.NumGoroutine(), before)
		}
	}
}

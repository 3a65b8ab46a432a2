package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"decor/internal/obs"
	"decor/internal/session"
	"decor/internal/snap"
)

// do issues a request with a tenant header against the test server.
func (s *testServer) do(t *testing.T, method, path, tenant, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, s.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// fieldBody is a small session field that plans in milliseconds.
func fieldBody(id string, seed uint64) string {
	return fmt.Sprintf(`{"field_id":%q,"field_side":30,"k":1,"rs":4,"num_points":200,"seed":%d,"scatter":20,"method":"centralized"}`, id, seed)
}

func decodeDelta(t *testing.T, b []byte) session.Delta {
	t.Helper()
	var d session.Delta
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("not a delta: %v\n%s", err, b)
	}
	return d
}

func TestFieldSessionLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})

	status, hdr, body := s.do(t, "POST", "/v1/fields", "acme", fieldBody("f1", 5))
	if status != http.StatusCreated {
		t.Fatalf("create status = %d, body %s", status, body)
	}
	if loc := hdr.Get("Location"); loc != "/v1/fields/f1" {
		t.Errorf("Location = %q", loc)
	}
	initial := decodeDelta(t, body)
	if initial.Seq != 0 || initial.FieldID != "f1" || !initial.Covered {
		t.Errorf("initial delta = %+v", initial)
	}

	// Duplicate create: 409.
	if status, _, _ := s.do(t, "POST", "/v1/fields", "acme", fieldBody("f1", 5)); status != http.StatusConflict {
		t.Errorf("duplicate create status = %d, want 409", status)
	}

	// Two NDJSON events in one request: two delta lines back, in order.
	status, _, body = s.do(t, "POST", "/v1/fields/f1/events", "acme",
		"{\"failed\":[1]}\n{\"failed\":[2,3]}\n")
	if status != http.StatusOK {
		t.Fatalf("events status = %d, body %s", status, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d delta lines, want 2:\n%s", len(lines), body)
	}
	d1, d2 := decodeDelta(t, lines[0]), decodeDelta(t, lines[1])
	if d1.Seq != 1 || d2.Seq != 2 {
		t.Errorf("delta seqs = %d, %d; want 1, 2", d1.Seq, d2.Seq)
	}
	if len(d2.Failed) != 2 {
		t.Errorf("second delta failed = %v", d2.Failed)
	}

	// Metadata reflects the applied events.
	status, _, body = s.do(t, "GET", "/v1/fields/f1", "acme", "")
	if status != http.StatusOK {
		t.Fatalf("get status = %d, body %s", status, body)
	}
	var info session.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Seq != 2 || !info.Covered {
		t.Errorf("info = %+v", info)
	}

	// Unknown sensor is a 400 and does not advance the session.
	if status, _, body := s.do(t, "POST", "/v1/fields/f1/events", "acme", `{"failed":[9999]}`); status != http.StatusBadRequest {
		t.Errorf("unknown sensor status = %d, body %s", status, body)
	}
	if _, _, body := s.do(t, "GET", "/v1/fields/f1", "acme", ""); !strings.Contains(string(body), `"seq":2`) {
		t.Errorf("rejected event advanced the session: %s", body)
	}

	// Delete, then the field is gone.
	if status, _, _ := s.do(t, "DELETE", "/v1/fields/f1", "acme", ""); status != http.StatusNoContent {
		t.Errorf("delete status = %d", status)
	}
	if status, _, _ := s.do(t, "GET", "/v1/fields/f1", "acme", ""); status != http.StatusNotFound {
		t.Errorf("get after delete status = %d", status)
	}
}

// TestFieldSessionMatchesStatelessReplay proves the delta-repair
// correctness criterion over HTTP: a session's cumulative delta stream
// is byte-identical to a second, fresh session driven through the same
// op sequence (the session architecture's replay determinism), and each
// delta's sensor accounting is internally consistent.
func TestFieldSessionMatchesStatelessReplay(t *testing.T) {
	run := func(s *testServer) []byte {
		var stream bytes.Buffer
		_, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 11))
		stream.Write(body)
		_, _, body = s.do(t, "POST", "/v1/fields/f/events", "t",
			"{\"failed\":[0]}\n{\"failed\":[4,5]}\n{\"failed\":[9]}\n")
		stream.Write(body)
		return stream.Bytes()
	}
	a := run(newTestServer(t, Config{}))
	b := run(newTestServer(t, Config{}))
	if !bytes.Equal(a, b) {
		t.Errorf("delta streams differ across servers:\n%s\nvs\n%s", a, b)
	}
	total := 0
	for _, line := range bytes.Split(bytes.TrimSpace(a), []byte("\n")) {
		d := decodeDelta(t, line)
		if d.Seq == 0 {
			total = d.TotalSensors
			continue
		}
		total += d.Placed - len(d.Failed)
		if d.TotalSensors != total {
			t.Errorf("seq %d: total %d, want %d", d.Seq, d.TotalSensors, total)
		}
		if !d.Covered {
			t.Errorf("seq %d: field not restored to full coverage", d.Seq)
		}
	}
}

func TestFieldTenantIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "a", fieldBody("shared", 1)); status != http.StatusCreated {
		t.Fatalf("tenant a create: %d %s", status, body)
	}
	// Tenant b cannot see a's field...
	if status, _, _ := s.do(t, "GET", "/v1/fields/shared", "b", ""); status != http.StatusNotFound {
		t.Errorf("cross-tenant get status = %d, want 404", status)
	}
	if status, _, _ := s.do(t, "DELETE", "/v1/fields/shared", "b", ""); status != http.StatusNotFound {
		t.Errorf("cross-tenant delete status = %d, want 404", status)
	}
	// ...and may use the same field ID for its own session.
	if status, _, body := s.do(t, "POST", "/v1/fields", "b", fieldBody("shared", 2)); status != http.StatusCreated {
		t.Errorf("tenant b create with same id: %d %s", status, body)
	}
	// Both sessions work independently.
	if status, _, body := s.do(t, "POST", "/v1/fields/shared/events", "a", `{"failed":[1]}`); status != http.StatusOK {
		t.Errorf("tenant a event: %d %s", status, body)
	}
	if status, _, body := s.do(t, "POST", "/v1/fields/shared/events", "b", `{"failed":[1]}`); status != http.StatusOK {
		t.Errorf("tenant b event: %d %s", status, body)
	}
}

// TestFieldQuota429DoesNotDisturbOtherTenants is the acceptance
// criterion for admission isolation: a tenant that exhausts its session
// quota gets 429 + Retry-After while another tenant's sessions keep
// planning deltas with zero failures.
func TestFieldQuota429DoesNotDisturbOtherTenants(t *testing.T) {
	s := newTestServer(t, Config{Sessions: session.Config{MaxSessionsPerTenant: 2}})
	for i := 0; i < 2; i++ {
		if status, _, body := s.do(t, "POST", "/v1/fields", "noisy", fieldBody(fmt.Sprintf("n%d", i), uint64(i))); status != http.StatusCreated {
			t.Fatalf("noisy create %d: %d %s", i, status, body)
		}
	}
	if status, _, body := s.do(t, "POST", "/v1/fields", "good", fieldBody("g", 9)); status != http.StatusCreated {
		t.Fatalf("good create: %d %s", status, body)
	}

	status, hdr, body := s.do(t, "POST", "/v1/fields", "noisy", fieldBody("n2", 3))
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota create status = %d, body %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("429 must carry Retry-After")
	}

	// The good tenant keeps streaming events while the noisy tenant
	// keeps hammering creates.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			s.do(t, "POST", "/v1/fields", "noisy", fieldBody(fmt.Sprintf("x%d", i), uint64(i)))
		}
	}()
	for i := 0; i < 5; i++ {
		if status, _, body := s.do(t, "POST", "/v1/fields/g/events", "good", fmt.Sprintf(`{"failed":[%d]}`, i)); status != http.StatusOK {
			t.Errorf("good tenant disturbed at event %d: %d %s", i, status, body)
		}
	}
	wg.Wait()
	if got := s.counter(obs.SessionQuotaRejected); got < 1 {
		t.Errorf("quota rejections = %d, want >= 1", got)
	}
}

// TestFieldSSEStream covers the live feed: ring replay from from_seq,
// live deltas as events apply, and prompt stream teardown on drop.
func TestFieldSSEStream(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, _, body := s.do(t, "POST", "/v1/fields/f/events", "t", `{"failed":[1]}`); status != http.StatusOK {
		t.Fatalf("event: %d %s", status, body)
	}

	req, err := http.NewRequest("GET", s.ts.URL+"/v1/fields/f/stream?from_seq=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(tenantHeader, "t")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}

	type sse struct {
		id   string
		data session.Delta
	}
	events := make(chan sse, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var cur sse
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data)
			case line == "":
				events <- cur
				cur = sse{}
			}
		}
	}()

	wait := func(what string) sse {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed waiting for %s", what)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	// from_seq=1 skips the ring's Seq-0 entry and replays Seq 1.
	if ev := wait("ring replay"); ev.id != "1" || ev.data.Seq != 1 {
		t.Fatalf("replayed event = %+v", ev)
	}

	// A live event arrives on the open stream.
	if status, _, body := s.do(t, "POST", "/v1/fields/f/events", "t", `{"failed":[2]}`); status != http.StatusOK {
		t.Fatalf("live event: %d %s", status, body)
	}
	if ev := wait("live delta"); ev.data.Seq != 2 || len(ev.data.Failed) != 1 || ev.data.Failed[0] != 2 {
		t.Fatalf("live delta = %+v", ev.data)
	}

	// Dropping the session closes the stream.
	if status, _, _ := s.do(t, "DELETE", "/v1/fields/f", "t", ""); status != http.StatusNoContent {
		t.Fatal("drop failed")
	}
	select {
	case _, ok := <-events:
		if ok {
			// A buffered delta may still arrive; the close must follow.
			if _, ok := <-events; ok {
				t.Error("stream still open after drop")
			}
		}
	case <-time.After(5 * time.Second):
		t.Error("stream did not close after drop")
	}
}

// TestEventsInOneRequestKeepTheirIDs: the events of one NDJSON request
// are decoded into one reused scratch slice, yet every delta the
// session keeps for SSE replay names its own event's sensors.
func TestEventsInOneRequestKeepTheirIDs(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, _, body := s.do(t, "POST", "/v1/fields/f/events", "t", "{\"failed\":[1]}\n{\"failed\":[2]}\n"); status != http.StatusOK {
		t.Fatalf("events: %d %s", status, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", s.ts.URL+"/v1/fields/f/stream?from_seq=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(tenantHeader, "t")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var replayed []session.Delta
	for len(replayed) < 2 && sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			replayed = append(replayed, decodeDelta(t, []byte(data)))
		}
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d deltas, want 2", len(replayed))
	}
	for i, d := range replayed {
		if want := i + 1; d.Seq != uint64(want) || len(d.Failed) != 1 || d.Failed[0] != want {
			t.Errorf("replayed seq %d names failed %v, want [%d]", d.Seq, d.Failed, want)
		}
	}
}

// TestMidStreamRefusalCarriesRetryAfter: once a stream has sent deltas
// under its 200, a refusal the client should retry later travels
// in-band with the delay Retry-After would have carried. The manager is
// closed between the two events of one piped stream.
func TestMidStreamRefusalCarriesRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/v1/fields/f/events", pr)
	req.Header.Set(tenantHeader, "t")
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.svc.Handler().ServeHTTP(rec, req)
	}()
	// A pipe write returns once the handler has read it, and the handler
	// reads past the first event only after writing its delta.
	for _, chunk := range []string{`{"failed":[1]}`, "\n"} {
		if _, err := io.WriteString(pw, chunk); err != nil {
			t.Fatal(err)
		}
	}
	s.svc.sessions.Close()
	if _, err := io.WriteString(pw, `{"failed":[2]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-served

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want the 200 of the first delta", rec.Code)
	}
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want a delta and an error:\n%s", len(lines), rec.Body)
	}
	if d := decodeDelta(t, lines[0]); d.Seq != 1 {
		t.Errorf("first line is delta seq %d, want 1", d.Seq)
	}
	want := fmt.Sprintf(`{"error":%q,"retry_after":%d}`, session.ErrClosed.Error(), s.svc.retryAfterSeconds())
	if got := string(lines[1]); got != want {
		t.Errorf("in-band refusal = %s, want %s", got, want)
	}
}

// TestFieldEventsInterleaveOverHTTP1: one HTTP/1.1 request can carry a
// conversation, a client waiting for each delta before it sends its
// next event. Without full duplex, net/http drains the unread body
// before the first delta's headers, and that client waits forever.
func TestFieldEventsInterleaveOverHTTP1(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() }) // runs before the server closes
	req, err := http.NewRequest("POST", s.ts.URL+"/v1/fields/f/events", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(tenantHeader, "t")
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- result{resp, err}
	}()
	if _, err := io.WriteString(pw, `{"failed":[1]}`+"\n"); err != nil {
		t.Fatal(err)
	}
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no response headers 10 s after the first event")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.resp.Body.Close()
	br := bufio.NewReader(res.resp.Body)
	for seq := 1; seq <= 2; seq++ {
		if seq == 2 {
			if _, err := io.WriteString(pw, `{"failed":[2]}`+"\n"); err != nil {
				t.Fatal(err)
			}
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading delta %d: %v", seq, err)
		}
		if d := decodeDelta(t, line); d.Seq != uint64(seq) || len(d.Failed) != 1 || d.Failed[0] != seq {
			t.Errorf("delta seq %d names failed %v, want seq %d naming [%d]", d.Seq, d.Failed, seq, seq)
		}
	}
	pw.Close()
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Errorf("after the last event: %q, %v; want a clean end", rest, err)
	}
}

// TestEndStreamsWakesEventStreams: a drain wakes an events stream
// blocked reading its body before its first event, which answers 503
// with Retry-After, and refuses a stream that arrives after it the same
// way, before reading any of its body. Neither breaks its connection:
// the server logs no panic.
func TestEndStreamsWakesEventStreams(t *testing.T) {
	s, errLog := newLoggedTestServer(t)
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest("POST", s.ts.URL+"/v1/fields/f/events", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(tenantHeader, "t")
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- result{resp, err}
	}()
	waitFor(t, func() bool {
		s.svc.streams.mu.Lock()
		defer s.svc.streams.mu.Unlock()
		return len(s.svc.streams.open) == 1
	})
	s.svc.EndStreams()

	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the woken stream sent no response in 10 s")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	body, _ := io.ReadAll(res.resp.Body)
	res.resp.Body.Close()
	const want = `{"error":"server shutting down"}`
	if res.resp.StatusCode != http.StatusServiceUnavailable || res.resp.Header.Get("Retry-After") == "" ||
		strings.TrimSpace(string(body)) != want {
		t.Errorf("woken stream: %d, Retry-After %q, %s; want 503 with Retry-After and %s",
			res.resp.StatusCode, res.resp.Header.Get("Retry-After"), body, want)
	}

	status, hdr, late := s.do(t, "POST", "/v1/fields/f/events", "t", `{"failed":[1]}`)
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" || strings.TrimSpace(string(late)) != want {
		t.Errorf("stream after the drain: %d, Retry-After %q, %s; want 503 with Retry-After and %s",
			status, hdr.Get("Retry-After"), late, want)
	}
	pw.Close()
	s.ts.Close() // flush the connections' goroutines before reading the log
	if strings.Contains(errLog.String(), "panic") {
		t.Errorf("server log:\n%s", errLog.String())
	}
}

// smallSendBuffers shrinks the send buffer of every accepted
// connection, so a handler writing to a client that stopped reading
// blocks after a few kilobytes.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(2048)
	}
	return c, err
}

// TestEndStreamsEndsStalledSSE: an SSE feed whose client stopped
// reading blocks writing once the socket buffers fill, and the session
// drops it as a lagging subscriber. Closing its channel cannot wake that
// write, so a drain cuts it: the handler ends within 2 s of EndStreams.
func TestEndStreamsEndsStalledSSE(t *testing.T) {
	svc := New(Config{Registry: obs.NewRegistry()})
	sseDone := make(chan struct{})
	api := svc.Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/stream") {
			close(sseDone)
		}
	}))
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	s := &testServer{svc: svc, ts: ts, reg: svc.cfg.Registry}
	// Each event fails 16 sensors, so each delta frame is about a
	// kilobyte and the feed's backlog outgrows the socket buffers.
	const perEvent = 16
	status, _, body := s.do(t, "POST", "/v1/fields", "t",
		`{"field_id":"f","field_side":60,"k":2,"rs":4,"num_points":1000,"seed":7,"scatter":100,"method":"centralized"}`)
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	alive := make([]int, 100) // the field's scattered sensors, then its placements
	for i := range alive {
		alive[i] = i
	}
	grow := func(placed int) {
		for next := alive[len(alive)-1] + 1; placed > 0; placed-- {
			alive = append(alive, next)
			next++
		}
	}
	grow(decodeDelta(t, body).Placed)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) // runs before the server closes
	_ = conn.(*net.TCPConn).SetReadBuffer(2048)
	if _, err := io.WriteString(conn, "GET /v1/fields/f/stream HTTP/1.1\r\nHost: decor\r\n"+tenantHeader+": t\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// The header is flushed once the feed is subscribed; nothing after it
	// is read.
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, " 200 ") {
		t.Fatalf("stream status line %q, %v; want 200", line, err)
	}
	for line := ""; line != "\r\n"; {
		if line, err = br.ReadString('\n'); err != nil {
			t.Fatalf("stream header: %v", err)
		}
	}
	dropped := s.reg.Counter(obs.SessionSubsDropped)
	for dropped.Value() == 0 {
		if len(alive) < perEvent {
			t.Fatal("the field ran out of sensors before its subscriber was dropped")
		}
		victims := append([]int(nil), alive[len(alive)-perEvent:]...)
		alive = alive[:len(alive)-perEvent]
		d, err := svc.sessions.Apply("t", "f", victims)
		if err != nil {
			t.Fatalf("event failing %v: %v", victims, err)
		}
		grow(d.Placed)
	}

	svc.EndStreams()
	select {
	case <-sseDone:
	case <-time.After(2 * time.Second):
		t.Fatal("the stalled SSE handler did not end within 2 s of EndStreams")
	}
}

// newLoggedTestServer is newTestServer on a default Config whose HTTP
// server logs into the returned buffer.
func newLoggedTestServer(t *testing.T) (*testServer, *lockedBuffer) {
	t.Helper()
	svc := New(Config{Registry: obs.NewRegistry()})
	ts := httptest.NewUnstartedServer(svc.Handler())
	errLog := new(lockedBuffer)
	ts.Config.ErrorLog = log.New(errLog, "", 0)
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return &testServer{svc: svc, ts: ts, reg: svc.cfg.Registry}, errLog
}

// lockedBuffer is a bytes.Buffer safe for the server's error log.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestEarlyEndedStreamKeepsItsConnection: a stream the handler ends
// before its body is read (a bad first event, or an in-band error after
// a delta) with kilobytes still to come must not break its connection.
// With full duplex on, net/http drains what the handler left unread
// only after it stopped watching the connection, and the next request
// on it panicked the server ("invalid concurrent Body.Read call").
func TestEarlyEndedStreamKeepsItsConnection(t *testing.T) {
	s, errLog := newLoggedTestServer(t)
	ts := s.ts
	client := ts.Client()
	post := func(path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(tenantHeader, "t")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST %s: reading the answer: %v", path, err)
		}
		return resp.StatusCode, b
	}
	if status, body := post("/v1/fields", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	tail := strings.Repeat(`{"failed":[3]}`+"\n", 1500) // 22.5 KB never read
	for i := 0; i < 6; i++ {
		stream, want := `{"failed":[]}`+"\n"+tail, http.StatusBadRequest
		if i%2 == 1 {
			stream, want = fmt.Sprintf(`{"failed":[%d]}`+"\n[2]\n", 10+i)+tail, http.StatusOK
		}
		if status, body := post("/v1/fields/f/events", stream); status != want {
			t.Fatalf("stream %d: %d %s, want %d", i, status, body, want)
		}
		if status, body := post("/v1/fields/f/events", fmt.Sprintf(`{"failed":[%d]}`, 4+i)); status != http.StatusOK {
			t.Fatalf("event after stream %d: %d %s", i, status, body)
		}
	}
	ts.Close() // flush the connections' goroutines before reading the log
	if strings.Contains(errLog.String(), "panic serving") {
		t.Errorf("server log:\n%s", errLog.String())
	}
}

// TestEarlyEndReachesAnInteractiveClient: a client that writes each
// event only after it read the previous answer, and keeps its body open,
// still gets the answer that ends its stream, a 400 ahead of the first
// delta or an in-band error after it, before the rest of its body is
// drained.
func TestEarlyEndReachesAnInteractiveClient(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s within 10 s", what)
		}
	}
	for _, tc := range []struct {
		events []string
		status int
		last   string
	}{
		{[]string{`{"failed":[]}`}, http.StatusBadRequest, `{"error":"event must name at least one failed sensor"}`},
		{[]string{`{"failed":[1]}`, `[2]`}, http.StatusOK, `{"error":"invalid event JSON: event at byte 15 is not an object"}`},
	} {
		pr, pw := io.Pipe()
		t.Cleanup(func() { pw.Close() }) // runs before the server closes
		req, err := http.NewRequest("POST", s.ts.URL+"/v1/fields/f/events", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(tenantHeader, "t")
		var resp *http.Response
		go io.WriteString(pw, tc.events[0]+"\n")
		within("response", func() { resp, err = http.DefaultClient.Do(req) })
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		var line []byte
		for _, ev := range tc.events[1:] {
			within("delta", func() { line, err = br.ReadBytes('\n') })
			go io.WriteString(pw, ev+"\n")
		}
		within("last answer", func() { line, err = br.ReadBytes('\n') })
		if resp.StatusCode != tc.status || string(bytes.TrimSpace(line)) != tc.last {
			t.Errorf("%v: %d %s (%v), want %d %s", tc.events, resp.StatusCode, line, err, tc.status, tc.last)
		}
		pw.Close()
		resp.Body.Close()
	}
}

// TestEventStreamOverBodyLimit: the body limit bounds a whole stream.
// The events that arrived within it are applied, and passing it is the
// 413 every body-reading route answers: before the first delta as the
// status, after it in-band.
func TestEventStreamOverBodyLimit(t *testing.T) {
	s := newTestServer(t, Config{Limits: Limits{MaxBodyBytes: 200}})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	long := `{"failed":[1` + strings.Repeat(",1", 195) + `]}` + "\n"
	status, _, body := s.do(t, "POST", "/v1/fields/f/events", "t", `{"failed":[1]}`+"\n"+long)
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if status != http.StatusOK || len(lines) != 2 {
		t.Fatalf("event then a long one: %d, %d lines, want 200 with a delta and an error:\n%s", status, len(lines), body)
	}
	if d := decodeDelta(t, lines[0]); d.Seq != 1 || len(d.Failed) != 1 || d.Failed[0] != 1 {
		t.Errorf("first line = %s, want the delta of the first event", lines[0])
	}
	if want := `{"error":"request body exceeds 200 bytes"}`; string(lines[1]) != want {
		t.Errorf("in-band refusal = %s, want %s", lines[1], want)
	}
	status, _, body = s.do(t, "POST", "/v1/fields/f/events", "t", long)
	if want := `{"error":"request body exceeds 200 bytes"}` + "\n"; status != http.StatusRequestEntityTooLarge || string(body) != want {
		t.Errorf("a long first event: %d %s, want 413 %s", status, body, want)
	}
}

// TestNonObjectEventRefused: an event must be an object. encoding/json
// read a null event as one naming no sensor; the parser ends the stream
// at any value that is not an object, with its own message and the same
// status as before: a 400 ahead of the first delta, in-band after it.
func TestNonObjectEventRefused(t *testing.T) {
	s := newTestServer(t, Config{})
	if status, _, body := s.do(t, "POST", "/v1/fields", "t", fieldBody("f", 7)); status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	status, _, body := s.do(t, "POST", "/v1/fields/f/events", "t", " null")
	if want := `{"error":"invalid event JSON: event at byte 1 is not an object"}` + "\n"; status != http.StatusBadRequest || string(body) != want {
		t.Errorf("null event: %d %s, want 400 %s", status, body, want)
	}
	status, _, body = s.do(t, "POST", "/v1/fields/f/events", "t", "{\"failed\":[1]}\n[2]\n")
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if status != http.StatusOK || len(lines) != 2 {
		t.Fatalf("event then array: %d, %d lines, want 200 with a delta and an error:\n%s", status, len(lines), body)
	}
	if want := `{"error":"invalid event JSON: event at byte 15 is not an object"}`; string(lines[1]) != want {
		t.Errorf("in-band refusal = %s, want %s", lines[1], want)
	}
}

// TestRestoreFailureIs500: an evicted record that fails to restore is
// the server's fault, not the client's.
func TestRestoreFailureIs500(t *testing.T) {
	err := fmt.Errorf("%w: %w", session.ErrRestore, snap.ErrCorrupt)
	if status, msg := sessionStatus(err); status != http.StatusInternalServerError || msg != err.Error() {
		t.Errorf("restore failure maps to %d %q, want 500 %q", status, msg, err.Error())
	}
}

// TestPlanTenantFairness429 exercises the per-tenant admission share on
// the stateless plan path: a tenant holding its whole share gets 429
// while another tenant's plan still admits and waits for a run slot.
func TestPlanTenantFairness429(t *testing.T) {
	s, g := gatedServer(t)
	release := holdSlot(t, g)
	fill(t, g, "hog")

	status, hdr, body := s.do(t, "POST", "/v1/plan", "hog", planBody(51))
	if status != http.StatusTooManyRequests {
		t.Fatalf("hog plan status = %d, body %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("429 must carry Retry-After")
	}

	// Another tenant still admits into the same gate.
	polite := async(t, "POST", s.ts.URL+"/v1/plan", "polite", planBody(52))
	waitFor(t, func() bool { return s.reg.Gauge(obs.ServeQueueDepth).Value() == 1 })
	release()
	if status := <-polite; status != http.StatusOK {
		t.Errorf("polite tenant status = %d, want 200", status)
	}
}

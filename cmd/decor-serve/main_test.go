package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildServe builds the decor-serve binary into a temporary directory.
func buildServe(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "decor-serve")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// served is a running decor-serve process and its output.
type served struct {
	cmd    *exec.Cmd
	stdout *bufio.Scanner
	stderr *bytes.Buffer
	url    string
}

// serve starts bin with args and waits for its listening line.
func serve(t *testing.T, bin string, args ...string) *served {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	s := &served{cmd: cmd, stdout: bufio.NewScanner(stdout), stderr: &bytes.Buffer{}}
	cmd.Stderr = s.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const ready = "decor-serve listening on "
	if !s.stdout.Scan() || !strings.HasPrefix(s.stdout.Text(), ready) {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("first line %q, want the listening line (stderr: %s)", s.stdout.Text(), s.stderr.String())
	}
	s.url = strings.TrimPrefix(s.stdout.Text(), ready)
	return s
}

// exit returns the rest of stdout and the exit error, once the process
// has ended.
func (s *served) exit() ([]string, error) {
	var rest []string
	for s.stdout.Scan() {
		rest = append(rest, s.stdout.Text())
	}
	return rest, s.cmd.Wait()
}

// TestTermRightAfterListening starts the built binary and sends SIGTERM
// the moment the readiness line appears: the signal handlers are
// installed before the listener, so the server must drain and exit 0
// instead of dying to the default TERM action.
func TestTermRightAfterListening(t *testing.T) {
	bin := buildServe(t)
	for run := 0; run < 5; run++ {
		s := serve(t, bin, "-addr", "127.0.0.1:0")
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		rest, err := s.exit()
		if err != nil {
			t.Fatalf("run %d: exit %v after SIGTERM (stdout %q, stderr %s)", run, err, rest, s.stderr.String())
		}
		if len(rest) == 0 || rest[len(rest)-1] != "decor-serve: drained, bye" {
			t.Fatalf("run %d: stdout after SIGTERM %q, want a drain ending in \"decor-serve: drained, bye\"", run, rest)
		}
	}
}

// TestTermEndsFieldStreams opens a field's SSE feed and an NDJSON events
// stream that has had its delta and keeps its body open, then sends
// SIGTERM. http.Server.Shutdown waits for both handlers, so the drain
// must end them: the SSE body ends, the events stream answers
// "server shutting down" in-band and ends, and the process exits 0
// well inside its drain timeout.
func TestTermEndsFieldStreams(t *testing.T) {
	s := serve(t, buildServe(t), "-addr", "127.0.0.1:0", "-drain-timeout", "5s")
	defer s.cmd.Process.Kill()
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Post(s.url+"/v1/fields", "application/json", strings.NewReader(
		`{"field_id":"f","field_side":30,"k":1,"rs":4,"num_points":200,"seed":7,"scatter":20,"method":"centralized"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	sse, err := client.Get(s.url + "/v1/fields/f/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if sse.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", sse.StatusCode)
	}
	sseEnd := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, sse.Body)
		sseEnd <- err
	}()

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest("POST", s.url+"/v1/fields/f/events", pr)
	if err != nil {
		t.Fatal(err)
	}
	go io.WriteString(pw, `{"failed":[1]}`+"\n")
	events, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	br := bufio.NewReader(events.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, `"seq":1,`) {
		t.Fatalf("first events line %q, %v; want delta seq 1", line, err)
	}

	term := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	const refusal = `{"error":"server shutting down","retry_after":`
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, refusal) {
		t.Errorf("events line after SIGTERM %q, %v; want %s…}", line, err, refusal)
	}
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Errorf("events body after the refusal: %q, %v; want its end", rest, err)
	}
	if err := <-sseEnd; err != nil {
		t.Errorf("SSE body: %v, want its end", err)
	}

	rest, err := s.exit()
	if took := time.Since(term); took > 2*time.Second {
		t.Errorf("exit %v after SIGTERM, want within 2 s", took)
	}
	if err != nil {
		t.Fatalf("exit %v after SIGTERM (stdout %q, stderr %s)", err, rest, s.stderr.String())
	}
	if len(rest) == 0 || rest[len(rest)-1] != "decor-serve: drained, bye" {
		t.Fatalf("stdout after SIGTERM %q, want a drain ending in \"decor-serve: drained, bye\"", rest)
	}
}

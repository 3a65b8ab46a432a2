package main

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestTermRightAfterListening starts the built binary and sends SIGTERM
// the moment the readiness line appears: the signal handlers are
// installed before the listener, so the server must drain and exit 0
// instead of dying to the default TERM action.
func TestTermRightAfterListening(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "decor-serve")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for run := 0; run < 5; run++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() || !strings.HasPrefix(sc.Text(), "decor-serve listening on ") {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("run %d: first line %q, want the listening line (stderr: %s)", run, sc.Text(), stderr.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var rest []string
		for sc.Scan() {
			rest = append(rest, sc.Text())
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("run %d: exit %v after SIGTERM (stdout %q, stderr %s)", run, err, rest, stderr.String())
		}
		if len(rest) == 0 || rest[len(rest)-1] != "decor-serve: drained, bye" {
			t.Fatalf("run %d: stdout after SIGTERM %q, want a drain ending in \"decor-serve: drained, bye\"", run, rest)
		}
	}
}

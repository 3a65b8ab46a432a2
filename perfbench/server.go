package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one decor-serve child process started with default flags
// on an ephemeral loopback port.
type server struct {
	cmd    *exec.Cmd
	url    string
	out    bytes.Buffer // stdout after the listening line, for the drain check
	errBuf bytes.Buffer
	outMu  sync.Mutex
	copied chan struct{} // closed once stdout reaches EOF
	exited bool
}

// startServer launches bin and waits for its listening line. The kernel
// kills the server if this process dies first.
func startServer(bin string) (*server, error) {
	s := &server{copied: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stderr = &lockedWriter{mu: &s.outMu, w: &s.errBuf}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	urlc := make(chan string, 1)
	go func() {
		defer close(s.copied)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if u, ok := strings.CutPrefix(line, "decor-serve listening on "); ok {
				urlc <- u
				continue
			}
			s.outMu.Lock()
			s.out.WriteString(line + "\n")
			s.outMu.Unlock()
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case s.url = <-urlc:
		return s, nil
	case <-s.copied:
		s.kill()
		return nil, fmt.Errorf("decor-serve exited before listening: %s", s.stderr())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("decor-serve did not print its address within 30s")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (s *server) stderr() string {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	return strings.TrimSpace(s.errBuf.String())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("decor-serve /healthz not ready within 30s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit. The
// drain check fails unless it exits 0 after printing its drain line.
func (s *server) stop() error {
	if s.exited {
		return nil
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling decor-serve: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		<-s.copied
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		s.exited = true
		if err != nil {
			return fmt.Errorf("decor-serve drain: %v (stderr: %s)", err, s.stderr())
		}
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("decor-serve did not drain within 60s")
	}
	s.outMu.Lock()
	drained := strings.Contains(s.out.String(), "drained, bye")
	s.outMu.Unlock()
	if !drained {
		return errors.New("decor-serve exited 0 without its drain line")
	}
	return nil
}

// kill stops the server without a drain, on error paths, and reaps it.
func (s *server) kill() {
	if s.exited {
		return
	}
	s.cmd.Process.Kill()
	<-s.copied
	s.cmd.Wait()
	s.exited = true
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
type procCPU struct{ user, sys time.Duration }

// clockTicks is USER_HZ, the unit of the stat CPU fields; Linux fixes it
// at 100 on every architecture Go supports.
const clockTicks = 100

// parseStat reads utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name (field 2) may hold spaces or
// parentheses, so fields are counted from its closing parenthesis.
func parseStat(text string) (procCPU, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return procCPU{}, errors.New("stat: no command name")
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return procCPU{}, fmt.Errorf("stat: %w", err)
	}
	tick := time.Second / clockTicks
	return procCPU{user: time.Duration(ut) * tick, sys: time.Duration(st) * tick}, nil
}

// parseStatusKB reads a "Key:   N kB" line of /proc/<pid>/status.
func parseStatusKB(text, key string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

func readCPU(pid int) (procCPU, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procCPU{}, err
	}
	return parseStat(string(b))
}

// hostCPU is the machine's CPU time from the aggregate "cpu" line of
// /proc/stat, in clock ticks: all of it, and the part the hypervisor
// gave to other guests while this one had work to run (steal).
type hostCPU struct{ steal, idle, total uint64 }

// parseHostStat reads the "cpu" line of /proc/stat: user nice system
// idle iowait irq softirq steal, then guest times that user already
// counts. Kernels before 2.6.11 print no steal field; they are refused.
func parseHostStat(text string) (hostCPU, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return hostCPU{}, fmt.Errorf("/proc/stat: cpu line has %d fields, want steal (8th value)", len(f)-1)
		}
		var h hostCPU
		for i, x := range f[1:9] {
			v, err := strconv.ParseUint(x, 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("/proc/stat: %w", err)
			}
			h.total += v
			switch i {
			case 3, 4:
				h.idle += v
			case 7:
				h.steal = v
			}
		}
		return h, nil
	}
	return hostCPU{}, errors.New("/proc/stat: no cpu line")
}

// mark is the CPU state read at a slice boundary of a measured phase.
type mark struct {
	srv   procCPU
	host  hostCPU
	probe time.Duration // median speed-probe time in the slice ending here
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostStat(string(b))
}

func readMark(pid int) (mark, error) {
	c, err := readCPU(pid)
	if err != nil {
		return mark{}, err
	}
	h, err := readHostCPU()
	return mark{srv: c, host: h}, err
}

func readPeakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}

// promSample is a parsed Prometheus text exposition: series name (with
// its label set, verbatim) to value.
type promSample map[string]float64

// parseProm parses the Prometheus text format: comment and blank lines
// are skipped, every other line is `series value [timestamp]`, where a
// series' label values may hold spaces inside their quotes.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unclosed labels", n+1)
			}
			series, rest = line[:j+1], line[j+1:]
		} else if i := strings.IndexAny(line, " \t"); i >= 0 {
			series, rest = line[:i], line[i:]
		}
		f := strings.Fields(rest)
		if len(f) < 1 || len(f) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value and an optional timestamp: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out[series] = v
	}
	return out, nil
}

// need returns a series the scrape must hold.
func (p promSample) need(series string) (float64, error) {
	v, ok := p[series]
	if !ok {
		return 0, fmt.Errorf("/metrics has no %s", series)
	}
	return v, nil
}

func scrape(client *http.Client, url string) (promSample, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(b))
}

// probe is the server state read around a measured phase.
type probe struct {
	cpu    procCPU
	prom   promSample
	allocs float64
}

// takeProbe scrapes /metrics and reads the server's CPU time. The
// scrape's own allocations and CPU land in the measured window once per
// run, a fixed cost.
func takeProbe(client *http.Client, s *server) (probe, error) {
	p, err := scrape(client, s.url)
	if err != nil {
		return probe{}, err
	}
	a, err := p.need("decor_serve_go_mallocs_total")
	if err != nil {
		return probe{}, err
	}
	cpu, err := readCPU(s.pid())
	if err != nil {
		return probe{}, err
	}
	return probe{cpu: cpu, prom: p, allocs: a}, nil
}

// histDelta is the count and sum a histogram gained between two scrapes.
func histDelta(a, b promSample, name string) (count, sum float64, err error) {
	c0, e1 := a.need(name + "_count")
	c1, e2 := b.need(name + "_count")
	s0, e3 := a.need(name + "_sum")
	s1, e4 := b.need(name + "_sum")
	if err := errors.Join(e1, e2, e3, e4); err != nil {
		return 0, 0, err
	}
	return c1 - c0, s1 - s0, nil
}

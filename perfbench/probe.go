package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe is a fixed piece of client work, run ten times a
// second during the measured phase, whose CPU time tracks how fast this
// machine's cores run at the moment. On a shared VM that speed moves by
// itself: with nothing stolen, the probe's median moved by a third from
// run to run, and the server's CPU per request with it (per-slice
// correlation 0.5-0.8). The time metrics of a run are divided
// by the pooled slices' probe time over probeRef, which takes that out
// (see sliceStats).

// probeEvery is how often the sampler runs the probe.
const probeEvery = 100 * time.Millisecond

// probeRef is the probe's typical CPU time on the 2-vCPU VM the
// benchmark was tuned on. It only sets the scale of the reported times;
// it cancels out of any comparison between two builds.
const probeRef = 250 * time.Microsecond

// probeBody is the probe's input: a fixed 100-sensor plan request, so
// the probe does the kind of work the service does (JSON decoding,
// allocation), in the client, on inputs that never change.
var probeBody = func() []byte {
	r := stream(0x9706e, 0)
	b := planBody{
		FieldSide: paperSide, K: paperK, Rs: paperRs, NumPoints: paperPoints,
		Generator: "halton", Method: methods[0], Sensors: make([]sensorSpec, 100),
	}
	for i := range b.Sensors {
		b.Sensors[i] = sensorSpec{ID: i, X: r.float() * paperSide, Y: r.float() * paperSide}
	}
	return mustJSON(b)
}()

// threadCPU returns the calling OS thread's CPU time. Linux counts it
// from the scheduler's task clock, which leaves out time the hypervisor
// stole.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// speedProbe decodes probeBody once and returns the thread CPU time it
// took.
func speedProbe() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		return 0, err
	}
	var b planBody
	if err := json.Unmarshal(probeBody, &b); err != nil {
		return 0, err
	}
	t1, err := threadCPU()
	return t1 - t0, err
}

package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile is one latency percentile with the sample counts behind it.
type quantile struct {
	Q       float64 `json:"q"`
	MS      float64 `json:"ms"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"` // samples strictly after the percentile's rank
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples.
// It refuses when fewer than minTail samples lie beyond that rank: such
// a percentile is one outlier away from a different value.
func percentile(samples []time.Duration, q float64) (quantile, error) {
	if q <= 0 || q >= 1 {
		return quantile{}, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minTail {
		return quantile{Q: q, Samples: n, Beyond: beyond},
			fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile{Q: q, MS: ms(s[rank-1]), Samples: n, Beyond: beyond}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	return t / time.Duration(len(xs))
}

// sliceLen is the length of the slices a measured phase is cut into.
const sliceLen = time.Second

// warmSlices are left out at the start of every phase: a fresh server
// is still growing its heap (plan-cold's first seconds are ~15% slower
// than the rest).
const warmSlices = 2

// The pooled slices are the least-stolen half of the rest, and at least
// minPooled of them, holding at least poolTarget requests.
const (
	minPooled  = 4
	poolTarget = 600
)

func numSlices(seconds int) int { return max(1, seconds*int(time.Second/sliceLen)) }

// stolenShare is the share of the machine's busy CPU time (all but idle
// and iowait) that the hypervisor gave to other guests between a and b.
// Steal only accrues while a vCPU has work to run, so this is the share
// of the time the benchmark's processes wanted the CPU and did not get it.
func stolenShare(a, b hostCPU) float64 {
	busy := (b.total - b.idle) - (a.total - a.idle)
	if busy == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}

// sliceDetail is one slice's sample count, steal and values as measured.
type sliceDetail struct {
	Ops       int     `json:"ops"`
	StolenPct float64 `json:"stolen_pct"`
	P50       float64 `json:"p50_ms,omitempty"`
	P90       float64 `json:"p90_ms,omitempty"`
	CPUMS     float64 `json:"cpu_ms_per_op"`
	ProbeUS   float64 `json:"probe_us"`
	Pooled    bool    `json:"pooled"`
}

// sliced holds the metrics of a phase's pooled slices.
type sliced struct {
	throughput, cpuMS float64
	p50, p90          quantile
	stolenPct         float64 // mean over the pooled slices
	slow              float64 // pooled slices' probe time over probeRef
	detail            []sliceDetail
}

// sliceStats cuts the measured phase into one-second slices by reply
// time, pools the least-stolen half of them (by stolenShare, read from
// the steal column of /proc/stat) and takes the stolen time out of the
// pooled slices: a slice whose stolen share is s counts as 1-s seconds,
// and each latency in it is scaled by 1-s. It then brings throughput,
// latency and server CPU to the reference speed of the speed probe
// (probe.go): they are divided by slow, the pooled slices' median probe
// time over probeRef (throughput multiplied).
//
// On a shared 2-vCPU VM, steal is what moves a run most: it comes and
// goes over seconds to minutes, at 0-50% of the busy time, and a slice
// with a fifth of its busy time stolen completed 30% fewer cached
// repairs and cold plans than one with none. Over five runs of each
// workload, taking the stolen share out of the least-stolen half cut the
// range of throughput from 8-25% to 5-7% and of p90 from 6-30% to 5-11%,
// against every slice as measured. What remains is the cores' own speed,
// which co-tenants move without stealing: in a set of ten cached-repair
// runs with nothing stolen, dividing by the probe cut the quartile
// spread of throughput and server CPU from 24% to 7%, of p90 from 18% to
// 12% and of p50 from 36% to 12%.
//
// Steal and the probe are read from the kernel and from fixed client
// work, not from the requests, so neither favours a request; a closed
// loop keeps the machine's demand the same in every slice, and a slower
// program is stolen from and slowed in the same proportion, so it still
// reads slower. Server CPU time is not scaled by the stolen share: the
// kernel already leaves stolen ticks out of it. The first warmSlices are
// warm-up and left out.
//
// Scaling by the stolen share is exact for throughput and close for
// requests longer than the hypervisor's time slices (plans, Voronoi
// repairs). A cached repair takes ~1.5 ms, so steal lands on few of
// them, and hard: in runs with a third of the pooled busy time stolen,
// scaled p50 read 1.14-1.26 ms and p90 2.28-2.66 ms, against 1.47-1.52
// and 1.86-1.99 ms in runs with none (p90 as measured read 3.0-4.6 ms).
func sliceStats(p *phase) (sliced, error) {
	n := numSlices(p.seconds)
	if full := int(p.wall / sliceLen); full < n {
		n = full // an exhausted op list ends the phase early
	}
	if n+1 > len(p.marks) {
		n = len(p.marks) - 1
	}
	if n < 1 {
		return sliced{}, errors.New("measured phase shorter than one slice")
	}
	lats := make([][]time.Duration, n)
	for _, r := range p.runs {
		for i, done := range r.done {
			if k := int(done / sliceLen); k < n {
				lats[k] = append(lats[k], r.lat[i])
			}
		}
	}
	first := min(warmSlices, n-1)
	var out sliced
	stolen := make([]float64, n)
	cpu := make([]time.Duration, n)
	order := make([]int, 0, n)
	for k := first; k < n; k++ {
		a, b := p.marks[k], p.marks[k+1]
		stolen[k] = stolenShare(a.host, b.host)
		cpu[k] = b.srv.user + b.srv.sys - a.srv.user - a.srv.sys
		sd := sliceDetail{Ops: len(lats[k]), StolenPct: 100 * stolen[k], ProbeUS: float64(b.probe) / 1e3}
		if q, err := percentile(lats[k], 0.5); err == nil {
			sd.P50 = q.MS
		}
		if q, err := percentile(lats[k], 0.9); err == nil {
			sd.P90 = q.MS
		}
		if sd.Ops > 0 {
			sd.CPUMS = ms(cpu[k]) / float64(sd.Ops)
		}
		out.detail = append(out.detail, sd)
		order = append(order, k)
	}
	sort.SliceStable(order, func(i, j int) bool { return stolen[order[i]] < stolen[order[j]] })
	var pooled []time.Duration
	var busy float64 // pooled seconds less their stolen share
	var cpuSum time.Duration
	var probes []float64
	used := 0
	for _, k := range order {
		if used >= max(minPooled, len(order)/2) && len(pooled) >= poolTarget {
			break
		}
		keep := 1 - stolen[k]
		for _, l := range lats[k] {
			pooled = append(pooled, time.Duration(float64(l)*keep))
		}
		busy += keep * sliceLen.Seconds()
		cpuSum += cpu[k]
		probes = append(probes, float64(p.marks[k+1].probe))
		out.stolenPct += 100 * stolen[k]
		out.detail[k-first].Pooled = true
		used++
	}
	out.stolenPct /= float64(used)
	if len(pooled) == 0 || busy <= 0 {
		return sliced{}, errors.New("no request completed in the pooled slices")
	}
	if out.slow = median(probes) / float64(probeRef); out.slow <= 0 {
		return sliced{}, errors.New("no speed probe in the pooled slices")
	}
	var err error
	if out.p50, err = percentile(pooled, 0.5); err != nil {
		return sliced{}, err
	}
	if out.p90, err = percentile(pooled, 0.9); err != nil {
		return sliced{}, err
	}
	out.p50.MS /= out.slow
	out.p90.MS /= out.slow
	out.throughput = float64(len(pooled)) / busy * out.slow
	out.cpuMS = ms(cpuSum) / float64(len(pooled)) / out.slow
	return out, nil
}

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"sort"
	"testing"

	"decor/internal/rng"
)

// resultDigest hashes every deterministic field of a Result: the
// placements in order (IDs, exact coordinate bits, rounds), message
// totals and per-node attribution, rounds, seeds and the stop flags.
func resultDigest(res Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range res.Placed {
		put(uint64(p.ID))
		put(math.Float64bits(p.Pos.X))
		put(math.Float64bits(p.Pos.Y))
		put(uint64(p.Round))
	}
	put(uint64(res.Messages))
	nodes := make([]int, 0, len(res.NodeMessages))
	for id := range res.NodeMessages {
		nodes = append(nodes, id)
	}
	sort.Ints(nodes)
	for _, id := range nodes {
		put(uint64(id))
		put(uint64(res.NodeMessages[id]))
	}
	put(uint64(res.Rounds))
	put(uint64(res.Seeded))
	if res.Capped || res.Interrupted {
		put(1)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlaceLargeGolden is the `make bench-large` gate: the 1e5-point
// BenchmarkPlace deployments of grid-small and the centralized greedy,
// run once each, must reproduce the pinned placement digests. Gated
// behind DECOR_BENCH_LARGE=1 so the regular suite stays fast.
func TestPlaceLargeGolden(t *testing.T) {
	if os.Getenv("DECOR_BENCH_LARGE") == "" {
		t.Skip("set DECOR_BENCH_LARGE=1 to run the large placement pins")
	}
	s := getPlaceScenario(100_000)
	for _, tc := range []struct {
		meth Method
		want string
	}{
		{GridDECOR{CellSize: 5}, "4e850d1cd3e87b74f2a90f2481491fb422f751bc71c64ceb553702fd1d9c7480"},
		{Centralized{}, "8142fd6128911fee8dd88378d500bc6b09b07bea46b0db79db278c1453918b96"},
	} {
		m := s.proto().Clone()
		res := tc.meth.Deploy(m, rng.New(7), Options{})
		if !m.FullyCovered() {
			t.Fatalf("%s left %d deficient points", tc.meth.Name(), m.NumDeficient())
		}
		if got := resultDigest(res); got != tc.want {
			t.Errorf("%s placement digest = %s, want %s (%d placed)", tc.meth.Name(), got, tc.want, len(res.Placed))
		}
	}
}

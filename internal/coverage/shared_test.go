package coverage

import (
	"slices"
	"sync"
	"testing"

	"decor/internal/geom"
	"decor/internal/index"
	"decor/internal/lowdisc"
)

// The registry key keeps the seed only for generators that read it: for
// every name lowdisc accepts, two seeds share a key (and a set) exactly
// when they give equal points. A future seeded generator whose value
// forgot its seed would share points between seeds and fail here.
func TestSharedKeyDropsSeedExactlyWhenPointsIgnoreIt(t *testing.T) {
	field := geom.Square(50)
	r := newRegistry(sharedBudget)
	var seeded, unseeded int
	for _, name := range lowdisc.Names() {
		g1, err := lowdisc.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := lowdisc.ByName(name, 2)
		k1, k2 := pointKey{g1, 300, field, 4}, pointKey{g2, 300, field, 4}
		samePts := slices.Equal(g1.Points(300, field), g2.Points(300, field))
		if (k1 == k2) != samePts {
			t.Errorf("%s: seeds 1 and 2 share a key %v, give equal points %v", name, k1 == k2, samePts)
		}
		if (r.get(k1) == r.get(k2)) != samePts {
			t.Errorf("%s: registry shares a set across seeds %v, equal points %v", name, !samePts, samePts)
		}
		if samePts {
			unseeded++
		} else {
			seeded++
		}
	}
	if seeded == 0 || unseeded == 0 {
		t.Fatalf("%d seeded, %d unseeded generators: one side of the check is empty", seeded, unseeded)
	}
}

// checkBooks asserts the registry's byte count is the sum of its
// entries' and within the budget, and that every retained entry's count
// is its set's size.
func checkBooks(t *testing.T, r *registry) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	for e := r.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*sharedEntry)
		if ent.bytes != ent.ps.bytes.Load() {
			t.Fatalf("entry accounts %d bytes, its set holds %d", ent.bytes, ent.ps.bytes.Load())
		}
		sum += ent.bytes
	}
	if sum != r.bytes || r.bytes > r.budget || len(r.byKey) != r.lru.Len() {
		t.Fatalf("registry books: %d bytes accounted, %d in %d entries (%d keyed), budget %d",
			r.bytes, sum, r.lru.Len(), len(r.byKey), r.budget)
	}
}

// Filling a registry past its budget with distinct sets, and growing
// them with adjacencies after insertion, keeps the retained bytes within
// the budget. An evicted set keeps working for the maps that hold it,
// and its later growth is not charged to the registry.
func TestSharedRegistryStaysWithinBudget(t *testing.T) {
	field := geom.Square(100)
	key := func(n int) pointKey { return pointKey{lowdisc.Halton{}, n, field, 4} }
	one := NewPointSet(field, lowdisc.Halton{}.Points(1000, field), 4)
	base := one.bytes.Load()
	one.Neighborhoods(4)
	r := newRegistry(3 * one.bytes.Load()) // three sets with their adjacency

	first := r.get(key(1000))
	m := NewMap(first, 2)
	checkBooks(t, r)
	for n := 1001; n < 1012; n++ {
		ps := r.get(key(n))
		checkBooks(t, r)
		ps.Neighborhoods(4)
		checkBooks(t, r)
		r.lookup(key(1001)) // keep using one older set
	}
	if r.lookup(key(1000)) != nil {
		t.Fatal("the first set survived eleven larger ones")
	}
	if r.lookup(key(1001)) == nil || r.lookup(key(1011)) == nil {
		t.Fatal("a recently used set was evicted: eviction is not least recently used first")
	}
	// The evicted set still serves its map, and grows privately.
	scatter(m, 30, 1)
	if m.PointNeighborhoods(4).Len() != 1000 || first.bytes.Load() <= base {
		t.Fatal("the evicted set did not build its adjacency")
	}
	checkBooks(t, r)
	if r.get(key(1000)) == first {
		t.Fatal("an evicted key handed back the evicted set")
	}
	checkBooks(t, r)

	// A set larger than the whole budget is built but not retained.
	huge := r.get(key(20000))
	if len(huge.pts) != 20000 || r.lookup(key(20000)) != nil {
		t.Fatal("a set over the budget was retained")
	}
	checkBooks(t, r)
}

// Concurrent first uses of one set's adjacency build it once and hand
// every goroutine the same immutable result.
func TestPointSetNeighborhoodsConcurrent(t *testing.T) {
	field := geom.Square(60)
	ps := NewPointSet(field, lowdisc.Halton{}.Points(1500, field), 4)
	const workers = 8
	got := make([]*index.Neighborhoods, 2*workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = ps.Neighborhoods(float64(4 + w%2))
		}()
	}
	wg.Wait()
	for w, nb := range got {
		if nb != got[w%2] {
			t.Fatalf("goroutine %d got a second build of radius %d", w, 4+w%2)
		}
	}
	if got[0] == got[1] || ps.BuiltNeighborhoods(4) != got[0] || ps.BuiltNeighborhoods(5) != got[1] {
		t.Fatal("radii 4 and 5 were not stored apart")
	}
	want := NewPointSet(field, lowdisc.Halton{}.Points(1500, field), 4).Neighborhoods(5)
	for i := 0; i < want.Len(); i++ {
		if !slices.Equal(want.At(i), got[1].At(i)) {
			t.Fatalf("point %d: concurrent build differs from a private one", i)
		}
	}
}

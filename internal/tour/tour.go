// Package tour plans the deployment route for the mobile robot the
// paper assumes will actuate DECOR's placement decisions ("new sensors
// can be deployed to the proposed locations by a human or a mobile
// robot", §1). It provides a nearest-neighbor construction with 2-opt
// improvement — the standard fast TSP heuristic stack — plus tour
// metrics used to compare deployment methods by actuation cost.
package tour

import (
	"math"

	"decor/internal/geom"
)

// Tour is an ordered visit of points, starting (and costed) from Start.
type Tour struct {
	Start geom.Point
	Stops []geom.Point
}

// Length returns the travel distance: Start → stops in order (no return
// leg; the robot stays at the last site).
func (t Tour) Length() float64 {
	total := 0.0
	cur := t.Start
	for _, p := range t.Stops {
		total += cur.Dist(p)
		cur = p
	}
	return total
}

// Plan builds a deployment tour over the given sites from start:
// nearest-neighbor construction followed by 2-opt improvement until no
// exchange helps (bounded by maxPasses over the tour; 0 means a sensible
// default).
func Plan(start geom.Point, sites []geom.Point, maxPasses int) Tour {
	t := Tour{Start: start, Stops: nearestNeighborOrder(start, sites)}
	if maxPasses <= 0 {
		maxPasses = 8
	}
	twoOpt(&t, maxPasses)
	return t
}

// nearestNeighborOrder greedily visits the closest unvisited site.
func nearestNeighborOrder(start geom.Point, sites []geom.Point) []geom.Point {
	remaining := append([]geom.Point(nil), sites...)
	out := make([]geom.Point, 0, len(remaining))
	cur := start
	for len(remaining) > 0 {
		best, bestD := 0, math.Inf(1)
		for i, p := range remaining {
			if d := cur.Dist2(p); d < bestD {
				best, bestD = i, d
			}
		}
		cur = remaining[best]
		out = append(out, cur)
		remaining[best] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return out
}

// twoOpt repeatedly reverses tour segments while any reversal shortens
// the path (open-path 2-opt: the edge after the last stop does not
// exist).
func twoOpt(t *Tour, maxPasses int) {
	s := t.Stops
	n := len(s)
	if n < 3 {
		return
	}
	pointAt := func(i int) geom.Point {
		if i < 0 {
			return t.Start
		}
		return s[i]
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < n-1; i++ {
			a := pointAt(i - 1)
			b := s[i]
			for j := i + 1; j < n; j++ {
				c := s[j]
				// Reversing s[i..j] replaces edges (a,b) and (c,d) with
				// (a,c) and (b,d); d may not exist at the tour end.
				oldLen := a.Dist(b)
				newLen := a.Dist(c)
				if j+1 < n {
					d := s[j+1]
					oldLen += c.Dist(d)
					newLen += b.Dist(d)
				}
				if newLen < oldLen-1e-12 {
					reverse(s[i : j+1])
					improved = true
					b = s[i]
				}
			}
		}
		if !improved {
			break
		}
	}
}

func reverse(s []geom.Point) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

package service

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"decor/internal/core"
	"decor/internal/geom"
	"decor/internal/partition"
)

// FuzzDecodePlanRequest drives arbitrary bytes through the exact
// decode+validate path of POST /v1/plan. The invariants: never panic,
// and anything that survives normalize respects every server limit —
// malformed JSON, non-finite coordinates and giant counts must all be
// rejected as client errors before a deployment is built.
func FuzzDecodePlanRequest(f *testing.F) {
	f.Add(`{"field_side":100,"k":3,"rs":4,"scatter":200}`)
	f.Add(`{"field_side":50,"k":2,"rs":4,"sensors":[{"id":1,"x":5,"y":5}],"method":"grid-big"}`)
	f.Add(`{"field_side":1e999,"k":1,"rs":4}`)
	f.Add(`{"field_side":100,"k":2147483647,"rs":4}`)
	f.Add(`{"field_side":100,"k":3,"rs":4,"num_points":99999999}`)
	f.Add(`{"field_side":100,"k":3,"rs":4,"scatter":-1}`)
	f.Add(`{"field_side":100,"k":3,"rs":4,"sensors":[{"x":1,"y":`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add(``)
	// An explicit ID at MaxInt left the scattered sensors after it no
	// room: their IDs wrapped, and a worker panicked on a duplicate.
	f.Add(`{"field_side":50,"k":1,"rs":4,"num_points":200,"sensors":[{"id":9223372036854775807,"x":1,"y":1}],"scatter":2,"method":"centralized"}`)
	// A 1e5 field at rs 4 asked for two 625-million-bucket index grids.
	f.Add(`{"field_side":1e5,"k":1,"rs":4,"num_points":200,"scatter":20,"method":"random"}`)
	f.Add(`{"field_side":3000,"k":1,"rs":100,"num_points":200,"scatter":20,"method":"grid-small"}`)
	// 6000 points at rs 100 on side 100 built a 1-GB point adjacency.
	f.Add(`{"field_side":100,"k":1,"rs":100,"num_points":6000,"scatter":20,"method":"centralized"}`)
	// A repeated "sensors" key, which the fast decoder once read apart
	// from encoding/json.
	f.Add(`{"field_side":50,"k":1,"rs":4,"num_points":200,"sensors":[{"id":1,"x":1,"y":2}],"sensors":[{"x":5}],"method":"centralized"}`)
	// Divergences from encoding/json, which accepts each: a case-folded
	// key, and a repeated one.
	f.Add(`{"field_side":50,"K":1,"rs":4}`)
	f.Add(`{"field_side":50,"k":1,"rs":4,"k":2}`)
	f.Fuzz(func(t *testing.T, body string) {
		lim := DefaultLimits()
		var pr PlanRequest
		if err := decodeRequest([]byte(body), &pr, nil, nil); err != nil {
			return // rejected at decode: fine, and no panic happened
		}
		norm, err := pr.normalize(lim)
		if err != nil {
			return // rejected at validation: fine
		}
		// Accepted requests must be inside every bound the executor
		// relies on.
		if norm.NumPoints < 1 || norm.NumPoints > lim.MaxPoints {
			t.Fatalf("accepted num_points %d outside (0, %d]", norm.NumPoints, lim.MaxPoints)
		}
		if n := len(norm.Sensors) + norm.Scatter; n > lim.MaxSensors || norm.Scatter < 0 {
			t.Fatalf("accepted sensor count %d (scatter %d) over limit", n, norm.Scatter)
		}
		if norm.K < 1 || norm.K > maxK {
			t.Fatalf("accepted k %d outside [1, %d]", norm.K, maxK)
		}
		if !isFinite(norm.FieldSide) || norm.FieldSide <= 0 ||
			!isFinite(norm.Rs) || norm.Rs <= 0 || !isFinite(norm.Rc) || norm.Rc < norm.Rs {
			t.Fatalf("accepted non-finite or inconsistent geometry: %+v", norm)
		}
		for i, s := range norm.Sensors {
			if !isFinite(s.X) || !isFinite(s.Y) {
				t.Fatalf("accepted non-finite sensor %d: %+v", i, s)
			}
			if *s.ID < 0 || *s.ID > 1<<53-1 {
				t.Fatalf("accepted sensor %d id %d outside [0, 2^53-1]", i, *s.ID)
			}
		}
		// Every cell grid the planner builds stays within the cap: the
		// coverage map's rs-spaced buckets (index.NewGrid's
		// (⌈side/rs⌉+1)², under the point index and the sensor table)
		// and a grid method's partition.
		if c := math.Ceil(norm.FieldSide/norm.Rs) + 1; c*c > maxGridCells {
			t.Fatalf("accepted field_side %g at rs %g: %g index cells", norm.FieldSide, norm.Rs, c*c)
		}
		// The point adjacency, n·min(n, n·π·rs²/side²) entries, stays
		// within its cap.
		n := float64(norm.NumPoints)
		if e := n * math.Min(n, n*math.Pi*norm.Rs*norm.Rs/(norm.FieldSide*norm.FieldSide)); e > maxAdjacencyEntries {
			t.Fatalf("accepted %d points at rs %g on side %g: about %g adjacency entries", norm.NumPoints, norm.Rs, norm.FieldSide, e)
		}
		m, err := core.MethodByName(norm.Method, norm.Rs)
		if err != nil {
			t.Fatalf("accepted method %q: %v", norm.Method, err)
		}
		if g, ok := m.(core.GridDECOR); ok {
			if n := partition.NewGrid(geom.Square(norm.FieldSide), g.CellSize).NumCells(); n > maxGridCells {
				t.Fatalf("accepted field_side %g with %s: %d cells", norm.FieldSide, norm.Method, n)
			}
		}
		// An accepted request survives a round trip through its own JSON
		// form: decoded and normalized again, it is the same request.
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var again PlanRequest
		if err := decodeRequest(b, &again, nil, nil); err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if again, err = again.normalize(lim); err != nil {
			t.Fatalf("re-normalizing %s: %v", b, err)
		}
		if !reflect.DeepEqual(marshalForm(norm), again) {
			t.Fatalf("%s changed across a JSON round trip:\n%+v\n%+v", b, norm, again)
		}
	})
}

// marshalForm is pr as its json.Marshal form reads back: omitempty
// drops an empty sensor list, so it returns as nil.
func marshalForm(pr PlanRequest) PlanRequest {
	if len(pr.Sensors) == 0 {
		pr.Sensors = nil
	}
	return pr
}

// FuzzDecodeRepairRequest extends the fuzz surface to the repair
// decoder: it must agree with the oracle, and failure references must
// never panic validation.
func FuzzDecodeRepairRequest(f *testing.F) {
	f.Add(`{"field_side":50,"k":1,"rs":4,"sensors":[{"x":1,"y":1}],"failed":[0]}`)
	f.Add(`{"field_side":50,"k":1,"rs":4,"failed":[99999999]}`)
	f.Add(`{"field_side":50,"k":1,"rs":4,"scatter":3,"failed":[2,2]}`)
	f.Add(`{"field_side":50,"k":1,"rs":4,"sensors":[{"id":7,"x":1,"y":1}],"scatter":3,"failed":[10,7,8]}`)
	f.Add(`{"field_side":50,"k":1,"rs":4,"scatter":3,"failed":[]}`)
	f.Add(`{"field_side":50,"k":1,"rs":4,"scatter":3,"failed":[1,null]}`)
	// Divergences from encoding/json, which accepts each: a case-folded
	// key inside a sensor, and a repeated failed list.
	f.Add(`{"field_side":50,"k":1,"rs":4,"sensors":[{"X":1,"y":1}],"failed":[0]}`)
	f.Add(`{"field_side":50,"k":1,"rs":4,"scatter":3,"failed":[0],"failed":[1]}`)
	f.Fuzz(func(t *testing.T, body string) {
		checkDecodeParity(t, "repair", []byte(body))
		var rr RepairRequest
		if err := decodeRequest([]byte(body), &rr.PlanRequest, &rr.Failed, nil); err != nil {
			return
		}
		norm, err := rr.normalize(DefaultLimits())
		if err != nil {
			return
		}
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var again RepairRequest
		if err := decodeRequest(b, &again.PlanRequest, &again.Failed, nil); err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if again, err = again.normalize(DefaultLimits()); err != nil {
			t.Fatalf("re-normalizing %s: %v", b, err)
		}
		norm.PlanRequest = marshalForm(norm.PlanRequest)
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("%s changed across a JSON round trip:\n%+v\n%+v", b, norm, again)
		}
	})
}

package query

import (
	"math/rand"
	"testing"

	"grove/internal/colstore"
)

// optimalCoverSize brute-forces the minimum number of bitmaps that cover the
// universe, choosing among the usable views (subsets of the universe) and
// single-edge bitmaps. Exponential in the number of usable views — test
// sizes only.
func optimalCoverSize(universe []colstore.EdgeID, views [][]colstore.EdgeID) int {
	var usable [][]colstore.EdgeID
	inUniverse := make(map[colstore.EdgeID]struct{}, len(universe))
	for _, e := range universe {
		inUniverse[e] = struct{}{}
	}
	for _, v := range views {
		ok := true
		for _, e := range v {
			if _, in := inUniverse[e]; !in {
				ok = false
				break
			}
		}
		if ok {
			usable = append(usable, v)
		}
	}
	best := len(universe) // all single edges
	for mask := 0; mask < 1<<len(usable); mask++ {
		covered := make(map[colstore.EdgeID]struct{})
		nViews := 0
		for i, v := range usable {
			if mask&(1<<i) == 0 {
				continue
			}
			nViews++
			for _, e := range v {
				covered[e] = struct{}{}
			}
		}
		cost := nViews + (len(universe) - len(covered))
		if cost < best {
			best = cost
		}
	}
	return best
}

// TestGreedyWithinHarmonicBound verifies the §5.3 claim: the greedy
// query-time rewriting is an H(n)-approximation of the optimal cover, where
// n is the number of query edges.
func TestGreedyWithinHarmonicBound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 150; trial++ {
		rel := colstore.NewRelation(0)
		cells := make([]colstore.Cell, 16)
		for e := range cells {
			cells[e] = colstore.Cell{Edge: colstore.EdgeID(e), Value: 1, HasValue: true}
		}
		rel.AppendRow(cells)
		var views [][]colstore.EdgeID
		numViews := rng.Intn(9)
		for v := 0; v < numViews; v++ {
			var ids []colstore.EdgeID
			for j := 0; j < 2+rng.Intn(4); j++ {
				ids = append(ids, colstore.EdgeID(rng.Intn(16)))
			}
			gv, err := rel.MaterializeView(string(rune('a'+v)), ids)
			if err != nil {
				continue
			}
			views = append(views, gv.Edges)
		}
		var universe []colstore.EdgeID
		seen := map[colstore.EdgeID]struct{}{}
		for j := 0; j < 2+rng.Intn(10); j++ {
			e := colstore.EdgeID(rng.Intn(16))
			if _, dup := seen[e]; !dup {
				seen[e] = struct{}{}
				universe = append(universe, e)
			}
		}
		greedy := PlanCover(rel, universe).NumBitmaps()
		opt := optimalCoverSize(universe, views)
		n := float64(len(universe))
		hn := 0.0
		for k := 1; k <= int(n); k++ {
			hn += 1 / float64(k)
		}
		if float64(greedy) > hn*float64(opt)+1e-9 {
			t.Fatalf("trial %d: greedy %d exceeds H(%d)=%.3f × opt %d",
				trial, greedy, int(n), hn, opt)
		}
		if greedy < opt {
			t.Fatalf("trial %d: greedy %d beat the 'optimal' %d — brute force is wrong",
				trial, greedy, opt)
		}
	}
}

package query

import (
	"math/bits"
	"slices"

	"grove/internal/colstore"
)

// CoverPlan is the outcome of rewriting a graph query against the
// materialized views (§5.3): which graph-view bitmaps, aggregate-view
// bitmaps and residual single-edge bitmaps to AND together. The number of
// bitmaps in the plan is exactly the query's structural I/O cost under the
// paper's cost model.
type CoverPlan struct {
	Views    []string          // graph views b_v used
	AggViews []string          // aggregate-view bitmaps b_p used as filters
	Edges    []colstore.EdgeID // residual single-edge bitmaps b_i
}

// NumBitmaps returns the number of bitmap columns the plan fetches.
func (p CoverPlan) NumBitmaps() int {
	return len(p.Views) + len(p.AggViews) + len(p.Edges)
}

// PlanCover rewrites a query with edge universe `universe` using the greedy
// set-cover algorithm of §5.3: the candidate sets are the materialized views
// whose edge sets are subgraphs of the query, plus the atomic single-edge
// bitmaps; the algorithm repeatedly picks the set covering the most
// still-uncovered query edges. It is the single-universe instance of the
// extended set cover problem and an H(n)-approximation of the optimal
// rewriting.
//
// Only views that are subsets of the query are usable: ANDing a bitmap of a
// non-subset view would over-filter the answer. The relation's view catalog
// hands over only the views whose smallest edge is in the query, and they
// are walked in catalog order (graph views, then aggregate views, each by
// name) — the tie-break between equal gains — so planning costs the views a
// query touches, not the whole view set.
func PlanCover(rel *colstore.Relation, universe []colstore.EdgeID) CoverPlan {
	cat := rel.Catalog()
	if cat.Len() == 0 {
		return PlanWithoutViews(universe) // nothing to rewrite against
	}
	return planCover(cat, universe)
}

// planCover is PlanCover over a non-empty catalog, kept out of line so the
// view-less path does not pay for its stack buffers.
func planCover(cat *colstore.ViewCatalog, universe []colstore.EdgeID) CoverPlan {
	// The query's edges, sorted and deduplicated; whatever no view covers
	// stays in the plan, in this order.
	edges := slices.Compact(PlanWithoutViews(universe).Edges)
	var coveredBuf [64]bool
	covered := coveredBuf[:]
	if len(edges) > len(covered) {
		covered = make([]bool, len(edges))
	}
	covered = covered[:len(edges)]

	// Mark the usable views by catalog position; reading the marks back in
	// bit order yields the candidates in catalog order without a sort.
	var marksBuf [16]uint64
	marks := marksBuf[:]
	if w := (cat.Len() + 63) / 64; w > len(marks) {
		marks = make([]uint64, w)
	}
	lo, hi := len(marks), 0
	for _, e := range edges {
		for _, pos := range cat.Postings(e) {
			if _, vedges, _ := cat.Entry(pos); subsetOf(vedges, edges) {
				w := int(pos / 64)
				marks[w] |= 1 << (pos % 64)
				lo, hi = min(lo, w), max(hi, w)
			}
		}
	}
	var candsBuf [32]int32
	cands := candsBuf[:0]
	for w := lo; w <= hi; w++ {
		for m := marks[w]; m != 0; m &= m - 1 {
			cands = append(cands, int32(w*64+bits.TrailingZeros64(m)))
		}
	}

	var plan CoverPlan
	for uncovered := len(edges); uncovered > 0; {
		bestIdx, bestGain := -1, 1 // a view must beat a single-edge bitmap
		for i, pos := range cands {
			_, vedges, _ := cat.Entry(pos)
			gain := 0
			for _, e := range vedges {
				if k, _ := slices.BinarySearch(edges, e); !covered[k] {
					gain++
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break // atomic edges are at least as good; stop per §5.2
		}
		name, vedges, isAgg := cat.Entry(cands[bestIdx])
		if isAgg {
			plan.AggViews = append(plan.AggViews, name)
		} else {
			plan.Views = append(plan.Views, name)
		}
		for _, e := range vedges {
			if k, _ := slices.BinarySearch(edges, e); !covered[k] {
				covered[k] = true
				uncovered--
			}
		}
	}
	plan.Edges = edges[:0]
	for i, e := range edges {
		if !covered[i] {
			plan.Edges = append(plan.Edges, e)
		}
	}
	return plan
}

// PlanWithoutViews returns the oblivious plan that fetches every edge bitmap
// directly, ignoring materialized views. It is the baseline the paper's
// "oblivious to the existing materialized graph views" comparison uses.
func PlanWithoutViews(universe []colstore.EdgeID) CoverPlan {
	edges := append([]colstore.EdgeID(nil), universe...)
	slices.Sort(edges)
	return CoverPlan{Edges: edges}
}

// subsetOf reports whether every edge is in set, which is sorted.
func subsetOf(edges, set []colstore.EdgeID) bool {
	for _, e := range edges {
		if _, ok := slices.BinarySearch(set, e); !ok {
			return false
		}
	}
	return true
}

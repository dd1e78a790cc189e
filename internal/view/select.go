package view

import (
	"slices"
	"sort"

	"grove/internal/colstore"
)

// SelectGraphViews solves the extended set cover problem of §5.2 greedily:
// the universes are the query edge sets, the coverable sets are the
// candidate views plus the implicit single-edge bitmaps, and each step picks
// the set covering the most still-uncovered edges across all universes. A
// candidate can only cover a universe it is a subset of (ANDing a non-subset
// view over-filters). Selection stops after k views, or as soon as no
// candidate beats a single-edge bitmap — whichever comes first. The
// complexity is O(Σ|Ui| × k), linear in the workload size.
//
// The return value lists the selected views in pick order, so prefixes of
// the result are exactly the selections for smaller budgets — this is what
// lets the Fig. 6–8 budget sweeps reuse one selection run.
func SelectGraphViews(cands []EdgeSet, queries []EdgeSet, k int) []EdgeSet {
	if k <= 0 || len(cands) == 0 || len(queries) == 0 {
		return nil
	}
	// uncovered[qi] tracks the not-yet-covered edges of each universe.
	uncovered := make([]map[colstore.EdgeID]struct{}, len(queries))
	for i, q := range queries {
		m := make(map[colstore.EdgeID]struct{}, len(q))
		for _, e := range q {
			m[e] = struct{}{}
		}
		uncovered[i] = m
	}
	// usable[ci] lists the universes candidate ci is a subset of.
	usable := make([][]int, len(cands))
	for ci, c := range cands {
		for qi, q := range queries {
			if c.SubsetOf(q) {
				usable[ci] = append(usable[ci], qi)
			}
		}
	}
	picked := make([]bool, len(cands))
	var out []EdgeSet
	for len(out) < k {
		bestIdx, bestGain := -1, 1 // must beat a single-edge bitmap (gain 1)
		for ci, c := range cands {
			if picked[ci] {
				continue
			}
			gain := 0
			for _, qi := range usable[ci] {
				for _, e := range c {
					if _, ok := uncovered[qi][e]; ok {
						gain++
					}
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = ci, gain
			}
		}
		if bestIdx < 0 {
			break // a single-edge bitmap is as good as anything left (§5.2)
		}
		picked[bestIdx] = true
		c := cands[bestIdx]
		out = append(out, c)
		for _, qi := range usable[bestIdx] {
			for _, e := range c {
				delete(uncovered[qi], e)
			}
		}
	}
	return out
}

// PathSeq is an ordered edge-id sequence — the edges of a path in traversal
// order. Unlike EdgeSet it is NOT sorted: aggregate views must match
// contiguous stretches of query paths.
type PathSeq []colstore.EdgeID

// pathSeqKey builds a canonical key.
func pathSeqKey(p PathSeq) string {
	b := make([]byte, 0, len(p)*5)
	for _, e := range p {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24), ';')
	}
	return string(b)
}

// occurrencesIn returns the start offsets of p as a contiguous subsequence
// of path.
func (p PathSeq) occurrencesIn(path PathSeq) []int {
	if len(p) == 0 || len(p) > len(path) {
		return nil
	}
	var out []int
	for i := 0; i+len(p) <= len(path); i++ {
		match := true
		for j := range p {
			if path[i+j] != p[j] {
				match = false
				break
			}
		}
		if match {
			out = append(out, i)
		}
	}
	return out
}

// SelectAggViews greedily selects up to k aggregate graph views from the
// candidate paths (§5.4). The universes are the maximal paths of the
// workload queries (one per occurrence); a candidate's benefit is the number
// of still-uncovered edge positions it covers across all universes —
// proportional to path length, as the paper's cost model prescribes, since
// covering L edges with one stored column saves L−1 measure fetches.
// Occurrences within one path are taken leftmost, non-overlapping.
// Selection stops early when no candidate covers more than one position.
//
// Occurrences do not depend on what is covered, so each candidate's are
// found once, from the positions of its first edge; a round re-counts only
// the uncovered positions under them. A candidate whose benefit has fallen
// to one can never be picked again (benefits only fall) and leaves the pool.
func SelectAggViews(cands []PathSeq, queryPaths []PathSeq, k int) []PathSeq {
	if k <= 0 || len(cands) == 0 || len(queryPaths) == 0 {
		return nil
	}
	type pos struct{ path, off int }
	covered := make([][]bool, len(queryPaths))
	starts := make(map[colstore.EdgeID][]pos) // every position of an edge, path-major
	for pi, p := range queryPaths {
		covered[pi] = make([]bool, len(p))
		for o, e := range p {
			starts[e] = append(starts[e], pos{pi, o})
		}
	}
	occ := make([][]pos, len(cands))
	live := make([]int, 0, len(cands))
	for ci, c := range cands {
		if len(c) == 0 {
			continue
		}
		last := pos{path: -1}
		for _, s := range starts[c[0]] {
			p := queryPaths[s.path]
			if s.off+len(c) > len(p) || !slices.Equal(p[s.off:s.off+len(c)], c) {
				continue
			}
			if s.path == last.path && s.off < last.off+len(c) {
				continue // overlaps the previous occurrence
			}
			occ[ci] = append(occ[ci], s)
			last = s
		}
		live = append(live, ci)
	}
	var out []PathSeq
	for len(out) < k {
		bestIdx, bestGain := -1, 1 // must beat a raw single-edge column
		kept := live[:0]
		for _, ci := range live {
			gain := 0
			for _, o := range occ[ci] {
				for _, cov := range covered[o.path][o.off : o.off+len(cands[ci])] {
					if !cov {
						gain++
					}
				}
			}
			if gain <= 1 {
				continue
			}
			kept = append(kept, ci)
			if gain > bestGain {
				bestIdx, bestGain = ci, gain
			}
		}
		live = kept
		if bestIdx < 0 {
			break
		}
		out = append(out, cands[bestIdx])
		for _, o := range occ[bestIdx] {
			for j := range cands[bestIdx] {
				covered[o.path][o.off+j] = true
			}
		}
	}
	return out
}

// NaiveTopKByFrequency is the ablation baseline for SelectGraphViews: it
// ranks whole query graphs by how often they recur in the workload and
// materializes the k most frequent, ignoring shared subgraphs entirely.
func NaiveTopKByFrequency(queries []EdgeSet, k int) []EdgeSet {
	type freq struct {
		set   EdgeSet
		count int
	}
	index := make(map[string]*freq)
	var order []*freq
	for _, q := range queries {
		if len(q) < 2 {
			continue
		}
		key := q.Key()
		if f, ok := index[key]; ok {
			f.count++
			continue
		}
		f := &freq{set: q, count: 1}
		index[key] = f
		order = append(order, f)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].count != order[j].count {
			return order[i].count > order[j].count
		}
		return len(order[i].set) > len(order[j].set)
	})
	if k > len(order) {
		k = len(order)
	}
	out := make([]EdgeSet, 0, k)
	for _, f := range order[:k] {
		out = append(out, f.set)
	}
	return out
}

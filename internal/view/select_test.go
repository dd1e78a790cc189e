package view

import (
	"math/rand"
	"reflect"
	"testing"

	"grove/internal/colstore"
)

// refSelectAggViews is SelectAggViews as it was before occurrences were
// counted once: every candidate's occurrences re-found in every query path
// in every greedy round.
func refSelectAggViews(cands []PathSeq, queryPaths []PathSeq, k int) []PathSeq {
	if k <= 0 || len(cands) == 0 || len(queryPaths) == 0 {
		return nil
	}
	covered := make([][]bool, len(queryPaths))
	for i, p := range queryPaths {
		covered[i] = make([]bool, len(p))
	}
	forEach := func(c PathSeq, f func(pi, o int)) {
		for pi, p := range queryPaths {
			last := -len(c)
			for _, o := range c.occurrencesIn(p) {
				if o < last+len(c) {
					continue
				}
				f(pi, o)
				last = o
			}
		}
	}
	picked := make([]bool, len(cands))
	var out []PathSeq
	for len(out) < k {
		bestIdx, bestGain := -1, 1
		for ci, c := range cands {
			if picked[ci] {
				continue
			}
			g := 0
			forEach(c, func(pi, o int) {
				for j := range c {
					if !covered[pi][o+j] {
						g++
					}
				}
			})
			if g > bestGain {
				bestIdx, bestGain = ci, g
			}
		}
		if bestIdx < 0 {
			break
		}
		picked[bestIdx] = true
		c := cands[bestIdx]
		out = append(out, c)
		forEach(c, func(pi, o int) {
			for j := range c {
				covered[pi][o+j] = true
			}
		})
	}
	return out
}

// TestSelectAggViewsMatchesReference: on random workloads over a small edge
// alphabet — so occurrences repeat, overlap (a run of one edge) and tie —
// with duplicate, empty and absent candidates, the selection picks the same
// candidates in the same order as re-counting every occurrence every round.
func TestSelectAggViewsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seq := func(n, alphabet int) PathSeq {
		s := make(PathSeq, n)
		for i := range s {
			s[i] = colstore.EdgeID(rng.Intn(alphabet))
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		alphabet := 2 + rng.Intn(6)
		paths := make([]PathSeq, 1+rng.Intn(12))
		for i := range paths {
			paths[i] = seq(rng.Intn(10), alphabet)
		}
		var cands []PathSeq
		for i := 0; i < rng.Intn(25); i++ {
			switch p := paths[rng.Intn(len(paths))]; {
			case rng.Intn(6) == 0:
				cands = append(cands, seq(rng.Intn(4), alphabet+1)) // may occur nowhere, or be empty
			case len(p) >= 2:
				lo := rng.Intn(len(p) - 1)
				cands = append(cands, append(PathSeq(nil), p[lo:lo+2+rng.Intn(len(p)-lo-1)]...))
			}
			if len(cands) > 0 && rng.Intn(8) == 0 {
				cands = append(cands, cands[rng.Intn(len(cands))])
			}
		}
		for _, k := range []int{1, 3, len(cands) + 1} {
			got, want := SelectAggViews(cands, paths, k), refSelectAggViews(cands, paths, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, k=%d: picked %v, reference %v (paths %v, candidates %v)", trial, k, got, want, paths, cands)
			}
		}
	}
}

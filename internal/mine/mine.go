// Package mine implements the frequent-subgraph mining substrate grove uses
// to reproduce the gIndex comparison of §6.3 and Figs. 10–11: a gSpan-style
// pattern-growth miner over a record sample, followed by gIndex-style
// discriminative-fragment selection. The selected fragments become extra
// bitmap columns in the master relation — exactly how the paper integrates
// specialized graph indexes into its framework.
//
// Because grove's records use globally named nodes (§1), two subgraphs match
// iff their edge sets are equal — no subgraph-isomorphism search or DFS-code
// canonization is needed. The miner therefore grows *connected edge sets*,
// which is the gSpan pattern space specialized to unique labels; supports
// are counted with transaction-id bitmaps.
package mine

import (
	"fmt"
	"sort"
	"strings"

	"grove/internal/bitmap"
	"grove/internal/graph"
)

// Fragment is a mined connected subgraph with its support in the training
// sample.
type Fragment struct {
	Edges   []graph.EdgeKey // sorted, unique
	Support int
	// tids is the set of training-record indexes containing the fragment.
	tids *bitmap.Bitmap
}

// Key returns the canonical identity of the fragment.
func (f Fragment) Key() string {
	parts := make([]string, len(f.Edges))
	for i, e := range f.Edges {
		parts[i] = e.String()
	}
	return strings.Join(parts, "")
}

// Size returns the number of edges.
func (f Fragment) Size() int { return len(f.Edges) }

// Config bounds the mining run.
type Config struct {
	MinSupport   int // minimum number of sample records containing a fragment (≥1)
	MaxEdges     int // largest fragment size to grow (gSpan's maxL)
	MaxFragments int // safety cap on the result size (0 = 100000)
}

// MineFrequent grows all frequent connected fragments of the sample records
// by pattern growth: frequent single edges first, then repeated extension of
// each frequent fragment with edges adjacent to it inside its supporting
// records.
func MineFrequent(records []*graph.Record, cfg Config) ([]Fragment, error) {
	if cfg.MinSupport < 1 {
		return nil, fmt.Errorf("mine: MinSupport must be ≥ 1, got %d", cfg.MinSupport)
	}
	if cfg.MaxEdges < 1 {
		return nil, fmt.Errorf("mine: MaxEdges must be ≥ 1, got %d", cfg.MaxEdges)
	}
	maxFragments := cfg.MaxFragments
	if maxFragments <= 0 {
		maxFragments = 100000
	}

	// Level 1: frequent single edges with tid bitmaps. incident[i] maps each
	// node of records[i] to the elements touching it (its proper edges either
	// way and its node element): the extensions of a fragment through that
	// node, found once per record rather than once per fragment.
	tidOf := make(map[graph.EdgeKey]*bitmap.Bitmap)
	incident := make([]map[string][]graph.EdgeKey, len(records))
	for i, rec := range records {
		inc := make(map[string][]graph.EdgeKey)
		for _, k := range rec.Elements() {
			b, ok := tidOf[k]
			if !ok {
				b = bitmap.New()
				tidOf[k] = b
			}
			b.Add(uint32(i))
			inc[k.From] = append(inc[k.From], k)
			if !k.IsNode() {
				inc[k.To] = append(inc[k.To], k)
			}
		}
		incident[i] = inc
	}
	var level []Fragment
	for k, tids := range tidOf {
		if tids.Cardinality() >= cfg.MinSupport {
			level = append(level, Fragment{Edges: []graph.EdgeKey{k}, Support: tids.Cardinality(), tids: tids})
		}
	}
	sortFragments(level)

	all := append([]Fragment(nil), level...)
	seen := make(map[string]struct{}, len(level))
	for _, f := range level {
		seen[f.Key()] = struct{}{}
	}

	for size := 1; size < cfg.MaxEdges && len(level) > 0; size++ {
		var next []Fragment
		for _, f := range level {
			// Candidate extensions: edges adjacent to f inside supporting
			// records.
			nodes := fragmentNodes(f)
			extTid := make(map[graph.EdgeKey]*bitmap.Bitmap)
			f.tids.Each(func(tid uint32) bool {
				for n := range nodes {
					for _, k := range incident[tid][n] {
						consider(extTid, k, f, tid)
					}
				}
				return true
			})
			for ext, tids := range extTid {
				if tids.Cardinality() < cfg.MinSupport {
					continue
				}
				edges := append(append([]graph.EdgeKey(nil), f.Edges...), ext)
				sort.Slice(edges, func(i, j int) bool { return edges[i].Less(edges[j]) })
				nf := Fragment{Edges: edges, Support: tids.Cardinality(), tids: tids}
				key := nf.Key()
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				next = append(next, nf)
				if len(all)+len(next) > maxFragments {
					return nil, fmt.Errorf("mine: more than %d frequent fragments; raise MinSupport", maxFragments)
				}
			}
		}
		sortFragments(next)
		all = append(all, next...)
		level = next
	}
	return all, nil
}

// consider accumulates the tid of one candidate extension, skipping edges
// already in the fragment.
func consider(extTid map[graph.EdgeKey]*bitmap.Bitmap, e graph.EdgeKey, f Fragment, tid uint32) {
	for _, have := range f.Edges {
		if have == e {
			return
		}
	}
	b, ok := extTid[e]
	if !ok {
		b = bitmap.New()
		extTid[e] = b
	}
	b.Add(tid)
}

func fragmentNodes(f Fragment) map[string]struct{} {
	nodes := make(map[string]struct{}, 2*len(f.Edges))
	for _, e := range f.Edges {
		nodes[e.From] = struct{}{}
		nodes[e.To] = struct{}{}
	}
	return nodes
}

func sortFragments(fs []Fragment) {
	sort.Slice(fs, func(i, j int) bool {
		if len(fs[i].Edges) != len(fs[j].Edges) {
			return len(fs[i].Edges) < len(fs[j].Edges)
		}
		if fs[i].Support != fs[j].Support {
			return fs[i].Support > fs[j].Support
		}
		return fs[i].Key() < fs[j].Key()
	})
}

// SelectDiscriminative applies gIndex's discriminative-fragment test,
// adapted to grove's named-node setting: walk fragments in increasing size
// and keep fragment f only when the already-kept subfragments of f select at
// least gamma× more training records than f itself — i.e. f genuinely
// narrows the candidate set beyond what is already indexed. With no kept
// subfragment the comparison base is the whole sample.
//
// Adaptation note: in the original gIndex the base also intersects size-1
// fragments, but grove's master relation stores an exact bitmap per single
// edge, whose intersection IS the answer — under that base no fragment is
// ever discriminative. What a fragment column buys here is the same thing a
// graph view buys: fewer bitmap fetches per query (§6.3). Measuring
// discriminativeness against kept multi-edge fragments keeps the selection
// non-redundant, which is the property the Figs. 10–11 comparison needs.
// numRecords is the training sample size.
func SelectDiscriminative(fragments []Fragment, numRecords int, gamma float64) []Fragment {
	if gamma < 1 {
		gamma = 1
	}
	ordered := append([]Fragment(nil), fragments...)
	sortFragments(ordered)
	var kept []Fragment
	for _, f := range ordered {
		if f.Size() < 2 || f.Support == 0 {
			continue
		}
		base := intersectSubfragments(f, kept, numRecords)
		if float64(base)/float64(f.Support) >= gamma {
			kept = append(kept, f)
		}
	}
	return kept
}

// intersectSubfragments counts the training records the kept subfragments of
// f select together (the whole sample when none is kept yet).
func intersectSubfragments(f Fragment, kept []Fragment, numRecords int) int {
	var acc *bitmap.Bitmap
	for _, k := range kept {
		if k.Size() < f.Size() && subsetEdges(k.Edges, f.Edges) {
			if acc == nil {
				acc = k.tids.Clone()
			} else {
				acc = acc.And(k.tids)
			}
		}
	}
	if acc == nil {
		return numRecords
	}
	return acc.Cardinality()
}

func subsetEdges(sub, super []graph.EdgeKey) bool {
	i := 0
	for _, e := range sub {
		for i < len(super) && super[i].Less(e) {
			i++
		}
		if i >= len(super) || super[i] != e {
			return false
		}
	}
	return true
}

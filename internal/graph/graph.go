// Package graph implements grove's graph data model (paper §3.1): directed
// graph records over a universe of named nodes, with numeric measures on
// nodes and edges, plus the universal edge-id registry that maps structural
// elements to master-relation columns and the DAG-flattening preprocessing
// step for cyclic traces (§6.2).
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// EdgeKey names a structural element. A node X is represented as the special
// self-edge [X,X] (§4.1), so nodes and edges are treated identically by the
// storage layer.
type EdgeKey struct {
	From string
	To   string
}

// NodeKey returns the EdgeKey representing node x.
func NodeKey(x string) EdgeKey { return EdgeKey{From: x, To: x} }

// E is shorthand for constructing an edge key.
func E(from, to string) EdgeKey { return EdgeKey{From: from, To: to} }

// IsNode reports whether the key denotes a node element.
func (k EdgeKey) IsNode() bool { return k.From == k.To }

func (k EdgeKey) String() string {
	if k.IsNode() {
		return "[" + k.From + "]"
	}
	return "(" + k.From + "," + k.To + ")"
}

// Less orders edge keys lexicographically; used for deterministic iteration.
func (k EdgeKey) Less(o EdgeKey) bool { return k.compare(o) < 0 }

// compare is the three-way form of Less.
func (k EdgeKey) compare(o EdgeKey) int {
	if c := strings.Compare(k.From, o.From); c != 0 {
		return c
	}
	return strings.Compare(k.To, o.To)
}

// Graph is a directed graph over named nodes: its structural elements
// (proper edges and node elements), deduplicated and in EdgeKey.Less order,
// and the names of its nodes, sorted. Every mutator leaves both slices
// sorted and no read reorders anything, so a graph nobody mutates may be read
// by concurrent queries. Adjacency is not stored: a node's out-edges are the
// contiguous run of elements whose From is the node, and the other
// neighbourhood queries scan the elements once.
type Graph struct {
	elems []EdgeKey
	nodes []string // endpoint or explicit node element
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddEdge adds the directed edge (from, to). Adding a self-loop (from == to)
// registers the node element instead, mirroring the [X,X] convention.
func (g *Graph) AddEdge(from, to string) {
	if from == to {
		g.AddNode(from)
		return
	}
	g.elems, _ = insertSorted(g.elems, E(from, to), EdgeKey.compare)
	g.nodes, _ = insertSorted(g.nodes, from, strings.Compare)
	g.nodes, _ = insertSorted(g.nodes, to, strings.Compare)
}

// AddNode registers node x as a structural element [X,X].
func (g *Graph) AddNode(x string) {
	g.elems, _ = insertSorted(g.elems, NodeKey(x), EdgeKey.compare)
	g.nodes, _ = insertSorted(g.nodes, x, strings.Compare)
}

// AddElement adds a structural element by key.
func (g *Graph) AddElement(k EdgeKey) {
	if k.IsNode() {
		g.AddNode(k.From)
	} else {
		g.AddEdge(k.From, k.To)
	}
}

// insertSorted inserts v into the sorted slice s unless an equal entry is
// there already, and returns the slice and the entry's index. Records are
// mostly built in walk order, so v is tried after the last entry before the
// slice is searched.
func insertSorted[T any](s []T, v T, cmp func(T, T) int) ([]T, int) {
	i := len(s)
	if i > 0 && cmp(s[i-1], v) >= 0 {
		var found bool
		if i, found = slices.BinarySearchFunc(s, v, cmp); found {
			return s, i
		}
	}
	return insertAt(s, i, v), i
}

// insertAt inserts v at s[i].
func insertAt[T any](s []T, i int, v T) []T {
	if len(s) == cap(s) {
		// Graphs are small: grow fourfold from 8 up to 128 entries, then
		// double, so a 67-edge record fills each slice in three allocations.
		n := 8
		if c := cap(s); c >= 128 {
			n = 2 * c
		} else if c > 0 {
			n = 4 * c
		}
		s = append(make([]T, 0, n), s...)
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// lastOfEach sorts s stably by cmp and keeps the last entry of each run of
// equal ones: the bulk form of inserting the entries one by one, each
// replacing its predecessor. Sorted input is not re-sorted.
func lastOfEach[T any](s []T, cmp func(T, T) int) []T {
	if !slices.IsSortedFunc(s, cmp) {
		slices.SortStableFunc(s, cmp)
	}
	out := s[:0]
	for i := range s {
		if i+1 < len(s) && cmp(s[i], s[i+1]) == 0 {
			continue
		}
		out = append(out, s[i])
	}
	return out
}

// settle makes g the graph of elems, given in any order and with repeats.
func (g *Graph) settle(elems []EdgeKey) {
	g.elems = lastOfEach(elems, EdgeKey.compare)
	g.nodes = make([]string, 0, len(g.elems)+1)
	for _, k := range g.elems {
		g.nodes = append(g.nodes, k.From)
		if !k.IsNode() {
			g.nodes = append(g.nodes, k.To)
		}
	}
	slices.Sort(g.nodes)
	g.nodes = slices.Compact(g.nodes)
}

// HasElement reports whether the structural element is present.
func (g *Graph) HasElement(k EdgeKey) bool {
	_, ok := slices.BinarySearchFunc(g.elems, k, EdgeKey.compare)
	return ok
}

// HasEdge reports whether the proper edge (from, to) is present.
func (g *Graph) HasEdge(from, to string) bool {
	return from != to && g.HasElement(E(from, to))
}

// HasNode reports whether x appears in the graph (as an element or as an
// edge endpoint).
func (g *Graph) HasNode(x string) bool {
	_, ok := slices.BinarySearch(g.nodes, x)
	return ok
}

// NumElements returns the number of structural elements (edges + node
// elements).
func (g *Graph) NumElements() int { return len(g.elems) }

// Elements returns all structural elements in deterministic order.
func (g *Graph) Elements() []EdgeKey {
	return append(make([]EdgeKey, 0, len(g.elems)), g.elems...)
}

// Nodes returns all node names in sorted order.
func (g *Graph) Nodes() []string {
	return append(make([]string, 0, len(g.nodes)), g.nodes...)
}

// outRange returns the bounds of the elements whose From is x: one
// contiguous run, ordered by To, holding x's out-edges and its node element.
func (g *Graph) outRange(x string) (lo, hi int) {
	lo = sort.Search(len(g.elems), func(i int) bool { return g.elems[i].From >= x })
	hi = lo
	for hi < len(g.elems) && g.elems[hi].From == x {
		hi++
	}
	return lo, hi
}

// Successors returns the sorted out-neighbours of x via proper edges.
func (g *Graph) Successors(x string) []string {
	lo, hi := g.outRange(x)
	out := make([]string, 0, hi-lo)
	for _, k := range g.elems[lo:hi] {
		if k.To != x {
			out = append(out, k.To)
		}
	}
	return out
}

// Predecessors returns the sorted in-neighbours of x via proper edges. The
// elements are in From order, so one scan finds them sorted.
func (g *Graph) Predecessors(x string) []string {
	out := make([]string, 0)
	for _, k := range g.elems {
		if k.To == x && k.From != x {
			out = append(out, k.From)
		}
	}
	return out
}

// Sources returns the nodes with no incoming proper edges (Src(G), §3.3).
func (g *Graph) Sources() []string {
	targets := make([]string, 0, len(g.elems))
	for _, k := range g.elems {
		if !k.IsNode() {
			targets = append(targets, k.To)
		}
	}
	slices.Sort(targets)
	var out []string
	for _, n := range g.nodes {
		if _, hit := slices.BinarySearch(targets, n); !hit {
			out = append(out, n)
		}
	}
	return out
}

// Terminals returns the nodes with no outgoing proper edges (Ter(G), §3.3).
func (g *Graph) Terminals() []string {
	var out []string
	for _, n := range g.nodes {
		// A node's run holds at most its node element when it has no out-edge.
		if lo, hi := g.outRange(n); hi == lo || hi == lo+1 && g.elems[lo].IsNode() {
			out = append(out, n)
		}
	}
	return out
}

// Intersect returns the common subgraph of g and h (shared elements).
func (g *Graph) Intersect(h *Graph) *Graph {
	var shared []EdgeKey
	for i, j := 0, 0; i < len(g.elems) && j < len(h.elems); {
		switch c := g.elems[i].compare(h.elems[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			shared = append(shared, g.elems[i])
			i++
			j++
		}
	}
	out := NewGraph()
	out.settle(shared)
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	return &Graph{elems: slices.Clone(g.elems), nodes: slices.Clone(g.nodes)}
}

// HasCycle reports whether the proper-edge structure contains a directed
// cycle.
func (g *Graph) HasCycle() bool { return hasCycle(g.elems) }

func (g *Graph) String() string {
	return fmt.Sprintf("Graph{%d elements, %d nodes}", len(g.elems), len(g.nodes))
}

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

// Graph is a directed graph over named nodes. It stores the structural
// elements (proper edges and node elements) of a record or a query. The zero
// value is not usable; call NewGraph.
type Graph struct {
	elems map[EdgeKey]struct{}
	out   map[string]map[string]struct{} // proper edges only
	in    map[string]map[string]struct{}
	nodes map[string]struct{} // endpoint or explicit node element
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		elems: make(map[EdgeKey]struct{}),
		out:   make(map[string]map[string]struct{}),
		in:    make(map[string]map[string]struct{}),
		nodes: make(map[string]struct{}),
	}
}

// AddEdge adds the directed edge (from, to). Adding a self-loop (from == to)
// registers the node element instead, mirroring the [X,X] convention.
func (g *Graph) AddEdge(from, to string) {
	if from == to {
		g.AddNode(from)
		return
	}
	g.elems[E(from, to)] = struct{}{}
	addAdj(g.out, from, to)
	addAdj(g.in, to, from)
	g.nodes[from] = struct{}{}
	g.nodes[to] = struct{}{}
}

// AddNode registers node x as a structural element [X,X].
func (g *Graph) AddNode(x string) {
	g.elems[NodeKey(x)] = struct{}{}
	g.nodes[x] = struct{}{}
}

// AddElement adds a structural element by key.
func (g *Graph) AddElement(k EdgeKey) {
	if k.IsNode() {
		g.AddNode(k.From)
	} else {
		g.AddEdge(k.From, k.To)
	}
}

func addAdj(m map[string]map[string]struct{}, a, b string) {
	s, ok := m[a]
	if !ok {
		s = make(map[string]struct{})
		m[a] = s
	}
	s[b] = struct{}{}
}

// HasElement reports whether the structural element is present.
func (g *Graph) HasElement(k EdgeKey) bool {
	_, ok := g.elems[k]
	return ok
}

// HasEdge reports whether the proper edge (from, to) is present.
func (g *Graph) HasEdge(from, to string) bool {
	return from != to && g.HasElement(E(from, to))
}

// HasNode reports whether x appears in the graph (as an element or as an
// edge endpoint).
func (g *Graph) HasNode(x string) bool {
	_, ok := g.nodes[x]
	return ok
}

// NumElements returns the number of structural elements (edges + node
// elements).
func (g *Graph) NumElements() int { return len(g.elems) }

// Elements returns all structural elements in deterministic order.
func (g *Graph) Elements() []EdgeKey {
	out := make([]EdgeKey, 0, len(g.elems))
	for k := range g.elems {
		out = append(out, k)
	}
	slices.SortFunc(out, EdgeKey.compare)
	return out
}

// Nodes returns all node names in sorted order.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Successors returns the sorted out-neighbours of x via proper edges.
func (g *Graph) Successors(x string) []string {
	return sortedKeys(g.out[x])
}

// Predecessors returns the sorted in-neighbours of x via proper edges.
func (g *Graph) Predecessors(x string) []string {
	return sortedKeys(g.in[x])
}

// OutDegree returns the number of proper edges leaving x.
func (g *Graph) OutDegree(x string) int { return len(g.out[x]) }

// InDegree returns the number of proper edges entering x.
func (g *Graph) InDegree(x string) int { return len(g.in[x]) }

// Sources returns the nodes with no incoming proper edges (Src(G), §3.3).
func (g *Graph) Sources() []string {
	var out []string
	for n := range g.nodes {
		if len(g.in[n]) == 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Terminals returns the nodes with no outgoing proper edges (Ter(G), §3.3).
func (g *Graph) Terminals() []string {
	var out []string
	for n := range g.nodes {
		if len(g.out[n]) == 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// IsSubgraphOf reports whether every structural element of g appears in h.
// Because nodes are named entities, this is plain containment — no
// isomorphism search is needed (§1).
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	for k := range g.elems {
		if !h.HasElement(k) {
			return false
		}
	}
	return true
}

// Intersect returns the common subgraph of g and h (shared elements).
func (g *Graph) Intersect(h *Graph) *Graph {
	out := NewGraph()
	small, large := g, h
	if len(h.elems) < len(g.elems) {
		small, large = h, g
	}
	for k := range small.elems {
		if large.HasElement(k) {
			out.AddElement(k)
		}
	}
	return out
}

// Union returns the union of g and h.
func (g *Graph) Union(h *Graph) *Graph {
	out := NewGraph()
	for k := range g.elems {
		out.AddElement(k)
	}
	for k := range h.elems {
		out.AddElement(k)
	}
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	for k := range g.elems {
		out.AddElement(k)
	}
	for n := range g.nodes {
		out.nodes[n] = struct{}{}
	}
	return out
}

// Equals reports element-set equality.
func (g *Graph) Equals(h *Graph) bool {
	if len(g.elems) != len(h.elems) {
		return false
	}
	for k := range g.elems {
		if !h.HasElement(k) {
			return false
		}
	}
	return true
}

// HasCycle reports whether the proper-edge structure contains a directed
// cycle.
func (g *Graph) HasCycle() bool {
	state := make(map[string]int, len(g.nodes))
	var visit func(string) bool
	visit = func(n string) bool {
		state[n] = grey
		for s := range g.out[n] {
			switch state[s] {
			case grey:
				return true
			case white:
				if visit(s) {
					return true
				}
			}
		}
		state[n] = black
		return false
	}
	for n := range g.nodes {
		if state[n] == white && visit(n) {
			return true
		}
	}
	return false
}

func (g *Graph) String() string {
	return fmt.Sprintf("Graph{%d elements, %d nodes}", len(g.elems), len(g.nodes))
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

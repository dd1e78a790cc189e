// Package gpath implements the path formalism of paper §3.3 (after Bleco &
// Kotidis, BEWEB 2012): paths as the fundamental structural unit of graph
// queries, open-ended paths that exclude endpoint node measures, composite
// paths, the path-join operator ⋈, and maximal-path enumeration.
package gpath

import (
	"fmt"
	"strings"

	"grove/internal/graph"
)

// Path is a sequence of adjacent nodes. Open endpoints exclude the endpoint
// node's own measure from aggregation, analogous to an open numeric
// interval: [D,E,G] includes the node measures of D and G, (D,E,G) excludes
// them; internal node measures are always included.
type Path struct {
	Nodes     []string
	OpenStart bool
	OpenEnd   bool
}

// Closed returns the closed path over the given nodes.
func Closed(nodes ...string) Path { return Path{Nodes: nodes} }

// Open returns the fully open path over the given nodes.
func Open(nodes ...string) Path {
	return Path{Nodes: nodes, OpenStart: true, OpenEnd: true}
}

// Node returns the single-node closed path [x,x] that denotes node x.
func Node(x string) Path { return Path{Nodes: []string{x}} }

// Len returns the number of edges in the path (0 for a single node).
func (p Path) Len() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Start returns the first node.
func (p Path) Start() string { return p.Nodes[0] }

// End returns the last node.
func (p Path) End() string { return p.Nodes[len(p.Nodes)-1] }

// Valid reports whether the path is well formed: non-empty, no repeated
// nodes (a path, not a walk — records are flattened to DAGs before path
// analysis, §6.2).
func (p Path) Valid() bool {
	if len(p.Nodes) == 0 {
		return false
	}
	seen := make(map[string]struct{}, len(p.Nodes))
	for _, n := range p.Nodes {
		if _, dup := seen[n]; dup {
			return false
		}
		seen[n] = struct{}{}
	}
	return true
}

// Edges returns the constituent proper edges in traversal order. These are
// the structural elements used for containment testing: a record contains
// the path iff it contains every edge.
func (p Path) Edges() []graph.EdgeKey {
	if len(p.Nodes) < 2 {
		return nil
	}
	out := make([]graph.EdgeKey, 0, len(p.Nodes)-1)
	for i := 0; i+1 < len(p.Nodes); i++ {
		out = append(out, graph.E(p.Nodes[i], p.Nodes[i+1]))
	}
	return out
}

// MeasuredNodes returns the nodes whose measures participate in aggregation
// along the path: all internal nodes, plus each endpoint when its side is
// closed. A single-node path contributes its node unless either side is
// open.
func (p Path) MeasuredNodes() []string {
	if len(p.Nodes) == 0 {
		return nil
	}
	if len(p.Nodes) == 1 {
		if p.OpenStart || p.OpenEnd {
			return nil
		}
		return []string{p.Nodes[0]}
	}
	var out []string
	if !p.OpenStart {
		out = append(out, p.Nodes[0])
	}
	out = append(out, p.Nodes[1:len(p.Nodes)-1]...)
	if !p.OpenEnd {
		out = append(out, p.Nodes[len(p.Nodes)-1])
	}
	return out
}

// Elements returns every structural element whose measure participates in
// aggregation along the path: the edges plus the measured nodes as [X,X]
// elements.
func (p Path) Elements() []graph.EdgeKey {
	out := p.Edges()
	for _, n := range p.MeasuredNodes() {
		out = append(out, graph.NodeKey(n))
	}
	return out
}

// ToGraph returns the path's edge structure as a graph.
func (p Path) ToGraph() *graph.Graph {
	g := graph.NewGraph()
	if len(p.Nodes) == 1 {
		g.AddNode(p.Nodes[0])
		return g
	}
	for _, e := range p.Edges() {
		g.AddElement(e)
	}
	return g
}

// Equal reports structural equality including openness.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) || p.OpenStart != q.OpenStart || p.OpenEnd != q.OpenEnd {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	return true
}

// Join implements the path-join operator ⋈ (§3.3): p ⋈ q concatenates the
// paths when p ends where q starts and exactly one of the two paths is open
// at the shared node (so its measure is counted exactly once). ok is false
// when the join is undefined.
func (p Path) Join(q Path) (Path, bool) {
	if len(p.Nodes) == 0 || len(q.Nodes) == 0 {
		return Path{}, false
	}
	if p.End() != q.Start() {
		return Path{}, false
	}
	if p.OpenEnd == q.OpenStart {
		// Both closed: shared node counted twice; both open: not counted.
		return Path{}, false
	}
	nodes := make([]string, 0, len(p.Nodes)+len(q.Nodes)-1)
	nodes = append(nodes, p.Nodes...)
	nodes = append(nodes, q.Nodes[1:]...)
	out := Path{Nodes: nodes, OpenStart: p.OpenStart, OpenEnd: q.OpenEnd}
	if !out.Valid() {
		// Concatenation revisits a node (e.g. [A,D,E] ⋈ (E,D,…)); the result
		// is not a path.
		return Path{}, false
	}
	return out, true
}

// String renders the path with interval-style brackets: [A,B,C], (A,B,C],
// [A,B,C), (A,B,C).
func (p Path) String() string {
	var sb strings.Builder
	if p.OpenStart {
		sb.WriteByte('(')
	} else {
		sb.WriteByte('[')
	}
	sb.WriteString(strings.Join(p.Nodes, ","))
	if p.OpenEnd {
		sb.WriteByte(')')
	} else {
		sb.WriteByte(']')
	}
	return sb.String()
}

// Composite is a composite path [A,G]* — a set of paths (§3.3).
type Composite struct {
	Paths []Path
}

// Join applies ⋈ pairwise between all paths of c and d, keeping the defined
// results.
func (c Composite) Join(d Composite) Composite {
	var out Composite
	for _, p := range c.Paths {
		for _, q := range d.Paths {
			if r, ok := p.Join(q); ok {
				out.Paths = append(out.Paths, r)
			}
		}
	}
	return out
}

// Len returns the number of member paths.
func (c Composite) Len() int { return len(c.Paths) }

func (c Composite) String() string {
	parts := make([]string, len(c.Paths))
	for i, p := range c.Paths {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// enumeration limits guard against pathological query graphs.
const maxEnumeratedPaths = 100000

// AllPaths returns every simple path in g from one of sources to one of
// targets, in deterministic order. The openness flags are applied to every
// returned path. An error is returned if enumeration exceeds an internal
// safety limit.
func AllPaths(g *graph.Graph, sources, targets []string, openStart, openEnd bool) ([]Path, error) {
	targetSet := make(map[string]struct{}, len(targets))
	for _, t := range targets {
		targetSet[t] = struct{}{}
	}
	var out []Path
	var stack []string
	onStack := make(map[string]struct{})
	var visit func(n string) error
	visit = func(n string) error {
		stack = append(stack, n)
		onStack[n] = struct{}{}
		defer func() {
			stack = stack[:len(stack)-1]
			delete(onStack, n)
		}()
		if _, hit := targetSet[n]; hit && len(stack) >= 1 {
			if len(out) >= maxEnumeratedPaths {
				return fmt.Errorf("gpath: more than %d paths", maxEnumeratedPaths)
			}
			nodes := make([]string, len(stack))
			copy(nodes, stack)
			out = append(out, Path{Nodes: nodes, OpenStart: openStart, OpenEnd: openEnd})
		}
		for _, s := range g.Successors(n) {
			if _, cyc := onStack[s]; cyc {
				continue
			}
			if err := visit(s); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range sources {
		if !g.HasNode(s) {
			continue
		}
		if err := visit(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MaximalPaths returns the maximal paths of g: the simple paths from the
// sources of g to its terminals (§3.3). For a DAG these are exactly the
// paths not contained in any other path of g.
func MaximalPaths(g *graph.Graph) ([]Path, error) {
	return AllPaths(g, g.Sources(), g.Terminals(), false, false)
}

// Between returns the composite path [from, to]* of g: all simple paths
// between the two node sets, closed at both ends.
func Between(g *graph.Graph, from, to []string) (Composite, error) {
	paths, err := AllPaths(g, from, to, false, false)
	if err != nil {
		return Composite{}, err
	}
	return Composite{Paths: paths}, nil
}

package gpath

import (
	"strings"
	"testing"

	"grove/internal/graph"
)

func TestPathBasics(t *testing.T) {
	p := Closed("A", "D", "E", "G", "I")
	if p.Len() != 4 {
		t.Errorf("Len = %d, want 4", p.Len())
	}
	if p.Start() != "A" || p.End() != "I" {
		t.Error("endpoints wrong")
	}
	if !p.Valid() {
		t.Error("valid path reported invalid")
	}
	edges := p.Edges()
	want := []graph.EdgeKey{graph.E("A", "D"), graph.E("D", "E"), graph.E("E", "G"), graph.E("G", "I")}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestPathValidity(t *testing.T) {
	if (Path{}).Valid() {
		t.Error("empty path valid")
	}
	if !Node("A").Valid() {
		t.Error("single node invalid")
	}
	if Closed("A", "B", "A").Valid() {
		t.Error("repeated node accepted")
	}
}

func TestMeasuredNodesOpenness(t *testing.T) {
	cases := []struct {
		p    Path
		want []string
	}{
		{Closed("D", "E", "G"), []string{"D", "E", "G"}},
		{Open("D", "E", "G"), []string{"E"}},
		{Path{Nodes: []string{"D", "E", "G"}, OpenEnd: true}, []string{"D", "E"}},
		{Path{Nodes: []string{"D", "E", "G"}, OpenStart: true}, []string{"E", "G"}},
		{Node("A"), []string{"A"}},
		{Open("A"), nil},
	}
	for _, c := range cases {
		got := c.p.MeasuredNodes()
		if len(got) != len(c.want) {
			t.Errorf("%s MeasuredNodes = %v, want %v", c.p, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s MeasuredNodes = %v, want %v", c.p, got, c.want)
			}
		}
	}
}

func TestElementsIncludeNodeKeys(t *testing.T) {
	p := Path{Nodes: []string{"D", "E", "G"}, OpenStart: true, OpenEnd: true}
	elems := p.Elements()
	// 2 edges + node E.
	if len(elems) != 3 {
		t.Fatalf("Elements = %v", elems)
	}
	if elems[2] != graph.NodeKey("E") {
		t.Errorf("Elements = %v", elems)
	}
}

func TestPathString(t *testing.T) {
	cases := map[string]Path{
		"[A,B,C]": Closed("A", "B", "C"),
		"(A,B,C)": Open("A", "B", "C"),
		"[A,B,C)": {Nodes: []string{"A", "B", "C"}, OpenEnd: true},
		"(A,B,C]": {Nodes: []string{"A", "B", "C"}, OpenStart: true},
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("String = %s, want %s", got, want)
		}
	}
}

func TestPathJoinPaperExample(t *testing.T) {
	// [A,B,F) ⋈ [F,J,K) = [A,B,F,J,K) (§3.3).
	p1 := Path{Nodes: []string{"A", "B", "F"}, OpenEnd: true}
	p2 := Path{Nodes: []string{"F", "J", "K"}, OpenEnd: true}
	got, ok := p1.Join(p2)
	if !ok {
		t.Fatal("join failed")
	}
	want := Path{Nodes: []string{"A", "B", "F", "J", "K"}, OpenEnd: true}
	if !got.Equal(want) {
		t.Fatalf("join = %s, want %s", got, want)
	}
}

func TestPathJoinRejectsDoubleCount(t *testing.T) {
	// [A,D,E] ⋈ [E,G,I] undefined: E would be counted twice (§3.3).
	if _, ok := Closed("A", "D", "E").Join(Closed("E", "G", "I")); ok {
		t.Error("closed-closed join accepted")
	}
	// Both open at the shared node: E counted zero times — also undefined.
	p1 := Path{Nodes: []string{"A", "E"}, OpenEnd: true}
	p2 := Path{Nodes: []string{"E", "G"}, OpenStart: true}
	if _, ok := p1.Join(p2); ok {
		t.Error("open-open join accepted")
	}
}

func TestPathJoinMismatchedEndpoints(t *testing.T) {
	p1 := Path{Nodes: []string{"A", "B"}, OpenEnd: true}
	p2 := Path{Nodes: []string{"C", "D"}}
	if _, ok := p1.Join(p2); ok {
		t.Error("disjoint join accepted")
	}
	if _, ok := (Path{}).Join(p2); ok {
		t.Error("empty join accepted")
	}
}

func TestPathJoinRevisit(t *testing.T) {
	p1 := Path{Nodes: []string{"A", "B", "C"}, OpenEnd: true}
	p2 := Path{Nodes: []string{"C", "A"}}
	if _, ok := p1.Join(p2); ok {
		t.Error("join that revisits A accepted")
	}
}

func TestCompositeJoin(t *testing.T) {
	c := Composite{Paths: []Path{
		{Nodes: []string{"A", "B", "F"}, OpenEnd: true},
		{Nodes: []string{"A", "D"}, OpenEnd: true},
	}}
	d := Composite{Paths: []Path{
		{Nodes: []string{"F", "J", "K"}},
		{Nodes: []string{"D", "E"}},
	}}
	got := c.Join(d)
	if got.Len() != 2 {
		t.Fatalf("composite join size = %d, want 2: %s", got.Len(), got)
	}
}

func paperFig1() *graph.Graph {
	g := graph.NewGraph()
	for _, e := range [][2]string{
		{"A", "D"}, {"A", "B"}, {"B", "F"}, {"C", "H"},
		{"D", "E"}, {"E", "G"}, {"F", "J"}, {"G", "I"},
		{"H", "K"}, {"J", "K"}, {"G", "K"},
	} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestMaximalPathsFig1(t *testing.T) {
	g := paperFig1()
	paths, err := MaximalPaths(g)
	if err != nil {
		t.Fatal(err)
	}
	// Sources {A, C}, terminals {I, K}:
	// A,D,E,G,I / A,D,E,G,K / A,B,F,J,K / C,H,K.
	if len(paths) != 4 {
		t.Fatalf("MaximalPaths = %v", paths)
	}
	found := map[string]bool{}
	for _, p := range paths {
		found[p.String()] = true
	}
	for _, want := range []string{"[A,D,E,G,I]", "[A,D,E,G,K]", "[A,B,F,J,K]", "[C,H,K]"} {
		if !found[want] {
			t.Errorf("missing maximal path %s (got %v)", want, paths)
		}
	}
}

func TestAllPathsOpenness(t *testing.T) {
	g := paperFig1()
	paths, err := AllPaths(g, []string{"A"}, []string{"G"}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].String() != "(A,D,E,G)" {
		t.Fatalf("AllPaths = %v", paths)
	}
}

func TestAllPathsMissingNodes(t *testing.T) {
	g := paperFig1()
	paths, err := AllPaths(g, []string{"ZZ"}, []string{"I"}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("paths from missing node: %v", paths)
	}
}

func TestAllPathsWithCycle(t *testing.T) {
	g := graph.NewGraph()
	g.AddEdge("A", "B")
	g.AddEdge("B", "A")
	g.AddEdge("B", "C")
	paths, err := AllPaths(g, []string{"A"}, []string{"C"}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].String() != "[A,B,C]" {
		t.Fatalf("AllPaths through cycle = %v", paths)
	}
}

func TestBetween(t *testing.T) {
	g := paperFig1()
	c, err := Between(g, []string{"A"}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 { // A,D,E,G,K and A,B,F,J,K
		t.Fatalf("Between = %s", c)
	}
}

func TestSingleNodeAsTarget(t *testing.T) {
	g := paperFig1()
	paths, err := AllPaths(g, []string{"A"}, []string{"A"}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Len() != 0 {
		t.Fatalf("self path = %v", paths)
	}
}

func TestToGraph(t *testing.T) {
	p := Closed("A", "B", "C")
	g := p.ToGraph()
	if !g.HasEdge("A", "B") || !g.HasEdge("B", "C") || g.NumElements() != 2 {
		t.Errorf("ToGraph = %v", g.Elements())
	}
	ng := Node("X").ToGraph()
	if !ng.HasElement(graph.NodeKey("X")) {
		t.Error("single-node ToGraph missing node element")
	}
}

// --- property-style tests ----------------------------------------------------

func TestJoinPreservesElementMultiset(t *testing.T) {
	// When p ⋈ q is defined, the joined path's measured elements are exactly
	// the union of the operands' (the shared endpoint counted once).
	p1 := Path{Nodes: []string{"A", "B", "C"}, OpenEnd: true}
	p2 := Path{Nodes: []string{"C", "D"}}
	joined, ok := p1.Join(p2)
	if !ok {
		t.Fatal("join failed")
	}
	count := func(paths ...Path) map[graph.EdgeKey]int {
		m := map[graph.EdgeKey]int{}
		for _, p := range paths {
			for _, e := range p.Elements() {
				m[e]++
			}
		}
		return m
	}
	want := count(p1, p2)
	got := count(joined)
	if len(got) != len(want) {
		t.Fatalf("element sets differ: %v vs %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("element %s: joined %d, operands %d", k, got[k], n)
		}
	}
}

func TestJoinAssociativityWhenDefined(t *testing.T) {
	a := Path{Nodes: []string{"A", "B"}, OpenEnd: true}
	b := Path{Nodes: []string{"B", "C"}, OpenEnd: true}
	c := Path{Nodes: []string{"C", "D"}}
	ab, ok := a.Join(b)
	if !ok {
		t.Fatal("a⋈b failed")
	}
	left, ok := ab.Join(c)
	if !ok {
		t.Fatal("(a⋈b)⋈c failed")
	}
	bc, ok := b.Join(c)
	if !ok {
		t.Fatal("b⋈c failed")
	}
	right, ok := a.Join(bc)
	if !ok {
		t.Fatal("a⋈(b⋈c) failed")
	}
	if !left.Equal(right) {
		t.Fatalf("join not associative: %s vs %s", left, right)
	}
}

func TestMaximalPathsAreMaximal(t *testing.T) {
	g := paperFig1()
	paths, err := MaximalPaths(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		for j, q := range paths {
			if i != j && containsRun(q, p) {
				t.Errorf("maximal path %s contained in %s", p, q)
			}
		}
	}
}

// containsRun reports whether q's node sequence appears as a contiguous run
// of p's.
func containsRun(p, q Path) bool {
	join := func(x Path) string { return "," + strings.Join(x.Nodes, ",") + "," }
	return strings.Contains(join(p), join(q))
}

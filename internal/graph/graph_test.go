package graph

import (
	"path/filepath"
	"slices"
	"testing"

	"grove/internal/colstore"
	"grove/internal/fsio"
)

// paperFigure1 builds the SCM record of paper Fig. 1 (structure only).
func paperFigure1() *Graph {
	g := NewGraph()
	for _, e := range [][2]string{
		{"A", "D"}, {"A", "B"}, {"B", "F"}, {"C", "H"},
		{"D", "E"}, {"E", "G"}, {"F", "J"}, {"G", "I"},
		{"H", "K"}, {"J", "K"}, {"G", "K"},
	} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := paperFigure1()
	if !g.HasEdge("A", "D") {
		t.Error("missing edge (A,D)")
	}
	if g.HasEdge("D", "A") {
		t.Error("reverse edge should not exist")
	}
	if g.NumElements() != 11 {
		t.Errorf("NumElements = %d, want 11", g.NumElements())
	}
	if !g.HasNode("K") || g.HasNode("Z") {
		t.Error("node membership wrong")
	}
}

func TestNodeAsSelfEdge(t *testing.T) {
	g := NewGraph()
	g.AddEdge("X", "X") // self-loop becomes node element
	if !g.HasElement(NodeKey("X")) {
		t.Error("self-loop not registered as node element")
	}
	if g.HasEdge("X", "X") {
		t.Error("HasEdge true for node element")
	}
	if NodeKey("X").String() != "[X]" {
		t.Errorf("NodeKey string = %s", NodeKey("X"))
	}
	if E("A", "B").String() != "(A,B)" {
		t.Errorf("edge string = %s", E("A", "B"))
	}
}

func TestSourcesTerminals(t *testing.T) {
	g := paperFigure1()
	wantSrc := []string{"A", "B", "C"}
	// B is a source? B has incoming edge (A,B). Sources: A, C only.
	wantSrc = []string{"A", "C"}
	gotSrc := g.Sources()
	if len(gotSrc) != len(wantSrc) {
		t.Fatalf("Sources = %v, want %v", gotSrc, wantSrc)
	}
	for i := range wantSrc {
		if gotSrc[i] != wantSrc[i] {
			t.Fatalf("Sources = %v, want %v", gotSrc, wantSrc)
		}
	}
	wantTer := []string{"I", "K"}
	gotTer := g.Terminals()
	if len(gotTer) != 2 || gotTer[0] != wantTer[0] || gotTer[1] != wantTer[1] {
		t.Fatalf("Terminals = %v, want %v", gotTer, wantTer)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := paperFigure1()
	succ := g.Successors("G")
	if len(succ) != 2 || succ[0] != "I" || succ[1] != "K" {
		t.Errorf("Successors(G) = %v", succ)
	}
	pred := g.Predecessors("K")
	if len(pred) != 3 { // G, H, J
		t.Errorf("Predecessors(K) = %v", pred)
	}
	if len(g.Successors("A")) != 2 || len(g.Predecessors("A")) != 0 {
		t.Error("degree bookkeeping wrong")
	}
}

func TestIntersect(t *testing.T) {
	a := NewGraph()
	a.AddEdge("A", "B")
	a.AddEdge("B", "C")
	b := NewGraph()
	b.AddEdge("B", "C")
	b.AddEdge("C", "D")
	inter := a.Intersect(b)
	if inter.NumElements() != 1 || !inter.HasEdge("B", "C") {
		t.Errorf("Intersect = %v", inter.Elements())
	}
	if !slices.Equal(inter.Nodes(), []string{"B", "C"}) {
		t.Errorf("Intersect nodes = %v", inter.Nodes())
	}
	if empty := a.Intersect(NewGraph()); empty.NumElements() != 0 || len(empty.Nodes()) != 0 {
		t.Error("intersect with empty not empty")
	}
}

func TestCloneEqualsIndependence(t *testing.T) {
	a := paperFigure1()
	c := a.Clone()
	if !slices.Equal(a.Elements(), c.Elements()) || !slices.Equal(a.Nodes(), c.Nodes()) {
		t.Fatal("clone not equal")
	}
	c.AddEdge("Z", "W")
	if slices.Equal(a.Elements(), c.Elements()) {
		t.Fatal("mutating clone affected equality")
	}
	if a.HasEdge("Z", "W") {
		t.Fatal("mutating clone affected original")
	}
}

func TestHasCycle(t *testing.T) {
	g := paperFigure1()
	if g.HasCycle() {
		t.Error("Fig. 1 record is acyclic")
	}
	g.AddEdge("K", "A")
	if !g.HasCycle() {
		t.Error("back edge K→A not detected")
	}
	single := NewGraph()
	single.AddNode("A")
	if single.HasCycle() {
		t.Error("single node reported cyclic")
	}
}

func TestRecordMeasures(t *testing.T) {
	r := NewRecord()
	if err := r.SetEdge("A", "B", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := r.SetNode("A", 0.5); err != nil {
		t.Fatal(err)
	}
	r.AddBareElement(E("B", "C"))
	if m := r.Measure(E("A", "B")); !m.Valid || m.Value != 1.5 {
		t.Errorf("edge measure = %+v", m)
	}
	if m := r.Measure(NodeKey("A")); !m.Valid || m.Value != 0.5 {
		t.Errorf("node measure = %+v", m)
	}
	if m := r.Measure(E("B", "C")); m.Valid {
		t.Error("bare element has measure")
	}
	if r.NumMeasures() != 2 {
		t.Errorf("NumMeasures = %d, want 2", r.NumMeasures())
	}
	if err := r.SetEdge("X", "Y", nan()); err == nil {
		t.Error("NaN measure accepted")
	}
}

func TestFlattenSequence(t *testing.T) {
	// Paper §6.2 example: A, B, C, A, D, E.
	rec, err := FlattenSequence([]string{"A", "B", "C", "A", "D", "E"}, []float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := []EdgeKey{E("A", "B"), E("B", "C"), E("C", "A#2"), E("A#2", "D"), E("D", "E")}
	for _, k := range wantEdges {
		if !rec.HasElement(k) {
			t.Errorf("missing %s", k)
		}
	}
	if rec.HasCycle() {
		t.Error("flattened sequence has a cycle")
	}
	if m := rec.Measure(E("C", "A#2")); !m.Valid || m.Value != 3 {
		t.Errorf("leg measure lost: %+v", m)
	}
}

func TestFlattenSequenceErrors(t *testing.T) {
	if _, err := FlattenSequence([]string{"A"}, nil); err == nil {
		t.Error("single stop accepted")
	}
	if _, err := FlattenSequence([]string{"A", "B"}, []float64{1, 2}); err == nil {
		t.Error("wrong measure count accepted")
	}
}

func TestFlattenSequenceNoMeasures(t *testing.T) {
	rec, err := FlattenSequence([]string{"A", "B", "A", "B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NumMeasures() != 0 {
		t.Errorf("NumMeasures = %d", rec.NumMeasures())
	}
	if !rec.HasElement(E("A#2", "B#2")) {
		t.Errorf("aliasing wrong: %v", rec.Elements())
	}
}

func TestFlattenToDAG(t *testing.T) {
	r := NewRecord()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.SetEdge("A", "B", 1))
	must(r.SetEdge("B", "C", 2))
	must(r.SetEdge("C", "A", 3)) // cycle
	must(r.SetNode("A", 9))
	flat := FlattenToDAG(r)
	if flat.HasCycle() {
		t.Fatal("FlattenToDAG left a cycle")
	}
	if flat.NumElements() != r.NumElements() {
		t.Errorf("element count changed: %d -> %d", r.NumElements(), flat.NumElements())
	}
	if m := flat.Measure(NodeKey("A")); !m.Valid || m.Value != 9 {
		t.Error("node measure lost in flattening")
	}
	// Total edge measure mass preserved.
	sum := 0.0
	for _, k := range flat.Elements() {
		if m := flat.Measure(k); m.Valid && !k.IsNode() {
			sum += m.Value
		}
	}
	if sum != 6 {
		t.Errorf("edge measure mass = %v, want 6", sum)
	}
}

func TestFlattenToDAGAcyclicIsClone(t *testing.T) {
	r := NewRecord()
	if err := r.SetEdge("A", "B", 1); err != nil {
		t.Fatal(err)
	}
	flat := FlattenToDAG(r)
	if !slices.Equal(flat.Elements(), r.Elements()) {
		t.Error("acyclic record altered by flattening")
	}
	flat.AddBareElement(E("X", "Y"))
	if r.HasElement(E("X", "Y")) {
		t.Error("flatten shares storage with original")
	}
}

func TestRegistryAssignment(t *testing.T) {
	reg := NewRegistry()
	a := reg.ID(E("A", "B"))
	b := reg.ID(E("B", "C"))
	if a == b {
		t.Fatal("distinct keys share an id")
	}
	if got := reg.ID(E("A", "B")); got != a {
		t.Fatal("id not stable")
	}
	if id, ok := reg.Lookup(E("A", "B")); !ok || id != a {
		t.Fatal("Lookup broken")
	}
	if _, ok := reg.Lookup(E("Z", "Z")); ok {
		t.Fatal("Lookup invented an id")
	}
	if k, ok := reg.Key(a); !ok || k != E("A", "B") {
		t.Fatal("Key broken")
	}
	if _, ok := reg.Key(999); ok {
		t.Fatal("Key out of range reported ok")
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}
}

func TestRegistrySaveLoad(t *testing.T) {
	reg := NewRegistry()
	reg.ID(E("A", "B"))
	reg.ID(NodeKey("C"))
	path := filepath.Join(t.TempDir(), "registry.json")
	if err := reg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRegistryFS(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
	if id, ok := got.Lookup(NodeKey("C")); !ok || id != 1 {
		t.Fatalf("ids not preserved: %d,%v", id, ok)
	}
}

func TestLoadRecord(t *testing.T) {
	rel := colstore.NewRelation(0)
	reg := NewRegistry()
	r := NewRecord()
	if err := r.SetEdge("A", "B", 2.5); err != nil {
		t.Fatal(err)
	}
	r.AddBareElement(E("B", "C"))
	id := LoadRecord(rel, reg, r)
	if id != 0 {
		t.Fatalf("first record id = %d", id)
	}
	ab, _ := reg.Lookup(E("A", "B"))
	bc, _ := reg.Lookup(E("B", "C"))
	if !rel.EdgeBitmap(ab).Contains(0) || !rel.EdgeBitmap(bc).Contains(0) {
		t.Error("record bits not set")
	}
	if v, ok := rel.MeasureColumn(ab).Get(0); !ok || v != 2.5 {
		t.Errorf("measure = %v,%v", v, ok)
	}
	if rel.MeasureColumn(bc) != nil {
		t.Error("bare element grew a measure column")
	}
}

func TestLoadRecordFlattensCycles(t *testing.T) {
	rel := colstore.NewRelation(0)
	reg := NewRegistry()
	r := NewRecord()
	for _, e := range [][2]string{{"A", "B"}, {"B", "A"}} {
		if err := r.SetEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	LoadRecord(rel, reg, r)
	// After flattening either (B,A) became (B,A#2) or (A,B) became (A,B#2)
	// depending on DFS start; in both cases some alias id must exist.
	found := false
	for id := colstore.EdgeID(0); int(id) < reg.Len(); id++ {
		k, _ := reg.Key(id)
		if len(k.From) > 1 || len(k.To) > 1 {
			found = true
		}
	}
	if !found {
		t.Error("no aliased element registered for cyclic record")
	}
}

func nan() float64 {
	var z float64
	return z / z
}

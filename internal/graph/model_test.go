package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"grove/internal/colstore"
)

// refRecord is the map-based model of a record that the flat form is held
// to: element, node and adjacency sets plus one value map per measure name
// ("" is the default measure), each query answered by a sort of map keys.
type refRecord struct {
	elems    map[EdgeKey]bool
	nodes    map[string]bool
	out, in  map[string]map[string]bool
	measures map[string]map[EdgeKey]float64
}

func newRef() *refRecord {
	return &refRecord{
		elems: map[EdgeKey]bool{}, nodes: map[string]bool{},
		out: map[string]map[string]bool{}, in: map[string]map[string]bool{},
		measures: map[string]map[EdgeKey]float64{},
	}
}

func (m *refRecord) addElement(k EdgeKey) {
	m.elems[k] = true
	m.nodes[k.From], m.nodes[k.To] = true, true
	if k.IsNode() {
		return
	}
	for _, adj := range []struct {
		m    map[string]map[string]bool
		a, b string
	}{{m.out, k.From, k.To}, {m.in, k.To, k.From}} {
		if adj.m[adj.a] == nil {
			adj.m[adj.a] = map[string]bool{}
		}
		adj.m[adj.a][adj.b] = true
	}
}

func (m *refRecord) set(k EdgeKey, name string, v float64) {
	m.addElement(k)
	if m.measures[name] == nil {
		m.measures[name] = map[EdgeKey]float64{}
	}
	m.measures[name][k] = v
}

func (m *refRecord) clone() *refRecord {
	c := newRef()
	for k := range m.elems {
		c.addElement(k)
	}
	for name, col := range m.measures {
		c.measures[name] = maps.Clone(col)
	}
	return c
}

func (m *refRecord) elements() []EdgeKey {
	out := make([]EdgeKey, 0, len(m.elems))
	for k := range m.elems {
		out = append(out, k)
	}
	slices.SortFunc(out, EdgeKey.compare)
	return out
}

func sortedSet(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func (m *refRecord) names() []string {
	var out []string
	for name, col := range m.measures {
		if name != DefaultMeasure && len(col) > 0 {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

func (m *refRecord) ends(adj map[string]map[string]bool) []string {
	var out []string
	for n := range m.nodes {
		if len(adj[n]) == 0 {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// hasCycle is the map DFS the flat form's contiguous-run DFS replaced.
func (m *refRecord) hasCycle() bool {
	state := map[string]int{}
	var visit func(string) bool
	visit = func(n string) bool {
		state[n] = grey
		for s := range m.out[n] {
			if state[s] == grey || state[s] == white && visit(s) {
				return true
			}
		}
		state[n] = black
		return false
	}
	for n := range m.nodes {
		if state[n] == white && visit(n) {
			return true
		}
	}
	return false
}

// row is the row Record.Row must produce.
func (m *refRecord) row() *Row {
	keys := m.elements()
	row := &Row{Keys: keys, Cells: make([]colstore.Cell, len(keys))}
	for i, k := range keys {
		c := &row.Cells[i]
		c.Value, c.HasValue = m.measures[DefaultMeasure][k]
		for _, name := range m.names() {
			if v, ok := m.measures[name][k]; ok {
				c.Named = append(c.Named, colstore.NamedValue{Name: name, Value: v})
			}
		}
	}
	return row
}

// flattenToDAG is the map-based FlattenToDAG: node elements first, then the
// DFS from every node in name order, back edges redirected to aliases.
func (m *refRecord) flattenToDAG() *refRecord {
	if !m.hasCycle() {
		return m.clone()
	}
	out := newRef()
	copyElem := func(to, from EdgeKey) {
		out.addElement(to)
		for name, col := range m.measures {
			if v, ok := col[from]; ok {
				out.set(to, name, v)
			}
		}
	}
	for _, k := range m.elements() {
		if k.IsNode() {
			copyElem(k, k)
		}
	}
	state, aliasN := map[string]int{}, map[string]int{}
	var visit func(string)
	visit = func(n string) {
		state[n] = grey
		for _, s := range sortedSet(m.out[n]) {
			switch state[s] {
			case grey:
				aliasN[s]++
				copyElem(E(n, fmt.Sprintf("%s#%d", s, aliasN[s]+1)), E(n, s))
			case white:
				copyElem(E(n, s), E(n, s))
				visit(s)
			default:
				copyElem(E(n, s), E(n, s))
			}
		}
		state[n] = black
	}
	for _, n := range sortedSet(m.nodes) {
		if state[n] == white {
			visit(n)
		}
	}
	return out
}

// sameRow compares rows by content: an empty Named list equals a nil one.
func sameRow(a, b *Row) bool {
	if !slices.Equal(a.Keys, b.Keys) || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		x, y := a.Cells[i], b.Cells[i]
		if x.HasValue != y.HasValue || x.Value != y.Value || x.Edge != y.Edge || !slices.Equal(x.Named, y.Named) {
			return false
		}
	}
	return true
}

// checkGraph compares every structural query of g with the model.
func checkGraph(t *testing.T, step string, g *Graph, m *refRecord, universe []string) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: %s = %v, model says %v", step, what, got, want)
	}
	if got, want := g.Elements(), m.elements(); !slices.Equal(got, want) {
		fail("Elements", got, want)
	}
	if got, want := g.Nodes(), sortedSet(m.nodes); !slices.Equal(got, want) {
		fail("Nodes", got, want)
	}
	if g.NumElements() != len(m.elems) {
		fail("NumElements", g.NumElements(), len(m.elems))
	}
	if got, want := g.Sources(), m.ends(m.in); !slices.Equal(got, want) {
		fail("Sources", got, want)
	}
	if got, want := g.Terminals(), m.ends(m.out); !slices.Equal(got, want) {
		fail("Terminals", got, want)
	}
	if got, want := g.HasCycle(), m.hasCycle(); got != want {
		fail("HasCycle", got, want)
	}
	for _, x := range universe {
		if got, want := g.Successors(x), sortedSet(m.out[x]); !slices.Equal(got, want) {
			fail("Successors("+x+")", got, want)
		}
		if got, want := g.Predecessors(x), sortedSet(m.in[x]); !slices.Equal(got, want) {
			fail("Predecessors("+x+")", got, want)
		}
		if g.HasNode(x) != m.nodes[x] {
			fail("HasNode("+x+")", g.HasNode(x), m.nodes[x])
		}
		for _, y := range universe {
			k := E(x, y)
			if g.HasElement(k) != m.elems[k] {
				fail("HasElement"+k.String(), g.HasElement(k), m.elems[k])
			}
			if want := x != y && m.elems[k]; g.HasEdge(x, y) != want {
				fail("HasEdge"+k.String(), g.HasEdge(x, y), want)
			}
		}
	}
}

// checkRecord adds the measure queries and Row to checkGraph.
func checkRecord(t *testing.T, step string, r *Record, m *refRecord, universe, names []string) {
	t.Helper()
	checkGraph(t, step, r.Graph, m, universe)
	want := 0
	for _, col := range m.measures {
		want += len(col)
	}
	if r.NumMeasures() != want {
		t.Fatalf("%s: NumMeasures = %d, model says %d", step, r.NumMeasures(), want)
	}
	if got, want := r.MeasureNames(), m.names(); !slices.Equal(got, want) {
		t.Fatalf("%s: MeasureNames = %v, model says %v", step, got, want)
	}
	for _, x := range universe {
		for _, y := range universe {
			k := E(x, y)
			for _, name := range names {
				v, ok := m.measures[name][k]
				if got := r.MeasureNamed(k, name); got != (Measure{Value: v, Valid: ok}) {
					t.Fatalf("%s: MeasureNamed(%s, %q) = %+v, model says %v,%v", step, k, name, got, v, ok)
				}
			}
			if r.Measure(k) != r.MeasureNamed(k, DefaultMeasure) {
				t.Fatalf("%s: Measure(%s) differs from the default MeasureNamed", step, k)
			}
		}
	}
	if got, want := r.Row(), m.row(); !sameRow(got, want) {
		t.Fatalf("%s: Row =\n%+v\nmodel says\n%+v", step, got, want)
	}
}

// TestFlatRecordMatchesModel drives random mutation sequences — every Set
// and Add form, promoted graph adds between sets, self-loops, repeats and
// clones — against the map model, comparing every query after every step.
func TestFlatRecordMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	universe := []string{"a", "b", "c", "d", "e", "f", "zz"} // zz is never added
	names := []string{DefaultMeasure, "cost", "time", "absent"}
	node := func() string { return universe[rng.Intn(len(universe)-1)] }
	for seq := 0; seq < 300; seq++ {
		r, m := NewRecord(), newRef()
		var orig *Record
		var origModel *refRecord
		for step := 0; step < 1+rng.Intn(30); step++ {
			k := E(node(), node())
			v := float64(rng.Intn(100))
			var what string
			switch op := rng.Intn(9); op {
			case 0:
				what = "AddEdge " + k.String()
				r.AddEdge(k.From, k.To) // promoted from the graph
				m.addElement(k)
			case 1:
				what = "AddNode " + k.From
				r.AddNode(k.From)
				m.addElement(NodeKey(k.From))
			case 2:
				what = "AddElement " + k.String()
				r.AddElement(k)
				m.addElement(k)
			case 3:
				what = "AddBareElement " + k.String()
				r.AddBareElement(k)
				m.addElement(k)
			case 4, 5:
				what = "SetElement " + k.String()
				if err := r.SetElement(k, v); err != nil {
					t.Fatal(err)
				}
				m.set(k, DefaultMeasure, v)
			case 6, 7:
				name := names[rng.Intn(len(names)-1)]
				what = fmt.Sprintf("SetElementNamed %s %q", k, name)
				if err := r.SetElementNamed(k, name, v); err != nil {
					t.Fatal(err)
				}
				m.set(k, name, v)
			case 8:
				what = "Clone"
				if orig == nil {
					orig, origModel = r, m.clone()
				}
				r, m = r.Clone(), m.clone()
			}
			at := fmt.Sprintf("sequence %d step %d (%s)", seq, step, what)
			checkRecord(t, at, r, m, universe, names)

			h, hm := NewGraph(), newRef()
			for i := rng.Intn(6); i > 0; i-- {
				k := E(node(), node())
				h.AddElement(k)
				hm.addElement(k)
			}
			shared := newRef()
			for k := range m.elems {
				if hm.elems[k] {
					shared.addElement(k)
				}
			}
			checkGraph(t, at+" Intersect", r.Intersect(h), shared, universe)
			checkGraph(t, at+" reverse Intersect", h.Intersect(r.Graph), shared, universe)
			fm := m.flattenToDAG()
			flat := FlattenToDAG(r)
			if got, want := flat.Row(), fm.row(); !sameRow(got, want) {
				t.Fatalf("%s: FlattenToDAG row =\n%+v\nmodel says\n%+v", at, got, want)
			}
			if flat.HasCycle() {
				t.Fatalf("%s: FlattenToDAG left a cycle", at)
			}
		}
		if orig != nil {
			checkRecord(t, fmt.Sprintf("sequence %d: record cloned from", seq), orig, origModel, universe, names)
		}
	}
}

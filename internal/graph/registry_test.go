package graph

import (
	"fmt"
	"slices"
	"testing"

	"grove/internal/colstore"
)

// resolveQueryGraph is a 16-element query graph: a 15-edge chain over
// registered nodes plus, when unknown > 0, that many edges to unregistered
// ones. reg holds the chain's edges among 64 registered elements.
func resolveQueryGraph(reg *Registry, unknown int) *Graph {
	for i := 0; i < 64; i++ {
		reg.ID(E(fmt.Sprintf("N%02d", i), fmt.Sprintf("N%02d", i+1)))
	}
	g := NewGraph()
	for i := 10; i < 10+15-unknown; i++ {
		g.AddEdge(fmt.Sprintf("N%02d", i), fmt.Sprintf("N%02d", i+1))
	}
	for i := 0; i < unknown; i++ {
		g.AddEdge("N10", fmt.Sprintf("X%d", i))
	}
	g.AddNode("N10")
	reg.ID(NodeKey("N10"))
	return g
}

// TestResolveGraph checks the one resolver against the per-element Lookup
// loop it replaced: ids come back ascending, the registered ones are exactly
// the ids Lookup finds, and every unknown element has its own sentinel above
// them, the same on every call while the registry does not grow.
func TestResolveGraph(t *testing.T) {
	for _, unknown := range []int{0, 1, 3} {
		reg := NewRegistry()
		g := resolveQueryGraph(reg, unknown)
		ids, keys := reg.ResolveGraph(g)
		if !slices.IsSorted(ids) || len(ids) != g.NumElements() {
			t.Fatalf("%d unknown: ids %v, want %d ascending", unknown, ids, g.NumElements())
		}
		var known []colstore.EdgeID
		var missing []EdgeKey
		for _, k := range g.Elements() {
			if id, ok := reg.Lookup(k); ok {
				known = append(known, id)
			} else {
				missing = append(missing, k)
			}
		}
		slices.Sort(known)
		if !slices.Equal(ids[:len(known)], known) {
			t.Fatalf("%d unknown: registered ids %v, Lookup finds %v", unknown, ids[:len(known)], known)
		}
		if !slices.Equal(keys, missing) {
			t.Fatalf("%d unknown: unknown keys %v, want %v", unknown, keys, missing)
		}
		sentinels := ids[len(known):]
		for i, id := range sentinels {
			if id < UnseenBase+colstore.EdgeID(reg.Len()) || i > 0 && id == sentinels[i-1] {
				t.Fatalf("%d unknown: sentinels %v are not distinct and above %d", unknown, sentinels, reg.Len())
			}
		}
		again, _ := reg.ResolveGraph(g)
		if !slices.Equal(again, ids) {
			t.Fatalf("%d unknown: a second call resolves %v, the first %v", unknown, again, ids)
		}
	}
}

// TestResolveRepeatedKeys pins the path form: a key that recurs gets the
// same id each time, known or not, and distinct unknown keys differ.
func TestResolveRepeatedKeys(t *testing.T) {
	reg := NewRegistry()
	ab := reg.ID(E("A", "B"))
	ids, unknown := reg.Resolve([]EdgeKey{E("X", "Y"), E("A", "B"), E("A", "X"), E("X", "Y"), E("A", "B")})
	if !slices.Equal(unknown, []EdgeKey{E("A", "X"), E("X", "Y")}) {
		t.Fatalf("unknown = %v", unknown)
	}
	want := []colstore.EdgeID{UnseenBase + 2, ab, UnseenBase + 1, UnseenBase + 2, ab}
	if !slices.Equal(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
}

// BenchmarkResolve prices resolving a 16-element query graph, every element
// registered: one read-lock section, 16 map probes and an id sort.
func BenchmarkResolve(b *testing.B) {
	reg := NewRegistry()
	g := resolveQueryGraph(reg, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.ResolveGraph(g)
	}
}

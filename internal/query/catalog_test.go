package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"grove/internal/colstore"
	"grove/internal/graph"
)

// The view-catalog planners against the scan-and-sort planners they
// replaced, kept here as references. The references read the view set from a
// model the test maintains beside the relation, never from the relation, so
// a catalog left stale by a mutation shows as a plan difference.

// refView is one view of the model: a graph view's normalized edge set, or
// an aggregate view's path with its function and measure.
type refView struct {
	name        string
	edges       []colstore.EdgeID
	fn, measure string
}

type viewModel struct {
	graph, agg map[string]refView
}

func newViewModel() *viewModel {
	return &viewModel{graph: map[string]refView{}, agg: map[string]refView{}}
}

// refPlanCover is PlanCover as it was before the view catalog: every view
// scanned, the usable ones sorted into (graph views, aggregate views) × name
// order, greedy over a map of uncovered edges.
func refPlanCover(m *viewModel, universe []colstore.EdgeID) CoverPlan {
	if len(m.graph)+len(m.agg) == 0 {
		return PlanWithoutViews(universe)
	}
	uncovered := make(map[colstore.EdgeID]struct{}, len(universe))
	for _, e := range universe {
		uncovered[e] = struct{}{}
	}
	type candidate struct {
		name  string
		isAgg bool
		edges []colstore.EdgeID
	}
	subset := func(edges []colstore.EdgeID) bool {
		for _, e := range edges {
			if _, ok := uncovered[e]; !ok {
				return false
			}
		}
		return true
	}
	var cands []candidate
	for _, v := range m.graph {
		if subset(v.edges) {
			cands = append(cands, candidate{name: v.name, edges: v.edges})
		}
	}
	for _, v := range m.agg {
		if subset(v.edges) {
			cands = append(cands, candidate{name: v.name, isAgg: true, edges: v.edges})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].isAgg != cands[j].isAgg {
			return !cands[i].isAgg
		}
		return cands[i].name < cands[j].name
	})
	var plan CoverPlan
	for len(uncovered) > 0 {
		bestIdx, bestGain := -1, 1
		for i, c := range cands {
			gain := 0
			for _, e := range c.edges {
				if _, ok := uncovered[e]; ok {
					gain++
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break
		}
		c := cands[bestIdx]
		if c.isAgg {
			plan.AggViews = append(plan.AggViews, c.name)
		} else {
			plan.Views = append(plan.Views, c.name)
		}
		for _, e := range c.edges {
			delete(uncovered, e)
		}
	}
	plan.Edges = make([]colstore.EdgeID, 0, len(uncovered))
	for e := range uncovered {
		plan.Edges = append(plan.Edges, e)
	}
	sort.Slice(plan.Edges, func(i, j int) bool { return plan.Edges[i] < plan.Edges[j] })
	return plan
}

// refCoverPath is coverPath as it was before the view catalog: every
// aggregate view of the function and measure filtered and sorted longest
// first, then by name, and tried at every position.
func refCoverPath(m *viewModel, pathEdges []colstore.EdgeID, funcName, measureName string, useViews bool) []pathSegment {
	var views []refView
	if useViews {
		for _, v := range m.agg {
			if v.fn == funcName && v.measure == measureName && len(v.edges) <= len(pathEdges) {
				views = append(views, v)
			}
		}
		sort.Slice(views, func(i, j int) bool {
			if len(views[i].edges) != len(views[j].edges) {
				return len(views[i].edges) > len(views[j].edges)
			}
			return views[i].name < views[j].name
		})
	}
	var out []pathSegment
	for i := 0; i < len(pathEdges); {
		matched := false
		for _, v := range views {
			if i+len(v.edges) > len(pathEdges) {
				continue
			}
			ok := true
			for j, e := range v.edges {
				if pathEdges[i+j] != e {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, pathSegment{ViewName: v.name, Length: len(v.edges)})
				i += len(v.edges)
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, pathSegment{Edge: pathEdges[i], Length: 1})
			i++
		}
	}
	return out
}

// catalogFixture is a relation and the model of its views, plus every view
// the trial ever materialized (queries are drawn from those, so a dropped
// view a stale catalog still holds is a candidate somewhere).
type catalogFixture struct {
	t       *testing.T
	rng     *rand.Rand
	rel     *colstore.Relation
	model   *viewModel
	history []refView
}

const catalogEdges = 24

var catalogFuncs = []AggFunc{Sum, Min, Max, Count}

func newCatalogFixture(t *testing.T, seed int64) *catalogFixture {
	rng := rand.New(rand.NewSource(seed))
	rel := colstore.NewRelation(0)
	for r := 0; r < 40; r++ {
		var cells []colstore.Cell
		for e := colstore.EdgeID(0); e < catalogEdges; e++ {
			if rng.Intn(3) > 0 {
				v := float64(rng.Intn(100))
				w := colstore.NamedValue{Name: "w", Value: float64(rng.Intn(100))}
				cells = append(cells, colstore.Cell{Edge: e, Value: v, HasValue: true, Named: []colstore.NamedValue{w}})
			}
		}
		rel.AppendRow(cells)
	}
	return &catalogFixture{t: t, rng: rng, rel: rel, model: newViewModel()}
}

func (f *catalogFixture) randomEdges(n int) []colstore.EdgeID {
	out := make([]colstore.EdgeID, n)
	for i := range out {
		out[i] = colstore.EdgeID(f.rng.Intn(catalogEdges))
	}
	return out
}

func (f *catalogFixture) addGraphView(name string, edges []colstore.EdgeID) {
	v, err := f.rel.MaterializeView(name, edges)
	if err != nil {
		f.t.Fatal(err)
	}
	rv := refView{name: name, edges: v.Edges}
	f.model.graph[name] = rv
	f.history = append(f.history, rv)
}

func (f *catalogFixture) addAggView(name string, path []colstore.EdgeID, fn AggFunc, measure string) {
	if _, err := f.rel.MaterializeAggViewOn(name, path, fn, measure); err != nil {
		f.t.Fatal(err)
	}
	rv := refView{name: name, edges: append([]colstore.EdgeID(nil), path...), fn: fn.Name, measure: measure}
	f.model.agg[name] = rv
	f.history = append(f.history, rv)
}

// populate materializes a random view set: graph views of 1-5 edges, and
// aggregate views of every function over two measures whose paths mostly
// start at one of three edges, in equal and unequal lengths, including the
// same path under two names (a name tie at equal length) and paths that
// repeat an edge.
func (f *catalogFixture) populate(graphViews, aggViews int) {
	for i := 0; i < graphViews; i++ {
		f.addGraphView(fmt.Sprintf("g%c%d", 'a'+f.rng.Intn(26), i), f.randomEdges(1+f.rng.Intn(5)))
	}
	for i := 0; i < aggViews; i++ {
		path := f.randomEdges(2 + f.rng.Intn(4))
		if f.rng.Intn(4) > 0 {
			path[0] = colstore.EdgeID(f.rng.Intn(3))
		}
		fn := catalogFuncs[f.rng.Intn(len(catalogFuncs))]
		measure := [...]string{"", "w"}[f.rng.Intn(2)]
		name := fmt.Sprintf("p%c%d", 'a'+f.rng.Intn(26), i)
		f.addAggView(name, path, fn, measure)
		if f.rng.Intn(5) == 0 {
			f.addAggView(name+"tie", path, fn, measure)
		}
	}
	// A run of 16 SUM views from one edge — past a sort's small-input
	// cutoff — over two paths of different lengths, each under many names
	// given out of order: only an order that breaks length ties by name
	// keeps the reference's pick.
	short := append([]colstore.EdgeID{1}, f.randomEdges(2)...)
	long := append(append([]colstore.EdgeID(nil), short...), f.randomEdges(1)...)
	for i := 0; i < 16; i++ {
		path := short
		if i%3 == 0 {
			path = long
		}
		f.addAggView(fmt.Sprintf("r%02d", (i*7)%16), path, Sum, "")
	}
}

// check plans random queries through both planners. Universes are drawn
// around every view the trial has seen (its edges plus extras, and its edges
// minus one so the view is a superset of the query), at random, and with
// unknown-edge sentinels; paths embed aggregate views' paths between random
// and unknown edges.
func (f *catalogFixture) check(rel *colstore.Relation, stage string) {
	f.t.Helper()
	sentinel := func() colstore.EdgeID { return colstore.EdgeID(graph.UnseenBase + f.rng.Intn(4)) }
	var universes, paths [][]colstore.EdgeID
	for _, v := range f.history {
		u := append(append([]colstore.EdgeID(nil), v.edges...), f.randomEdges(f.rng.Intn(4))...)
		universes = append(universes, u)
		if len(v.edges) > 1 {
			universes = append(universes, v.edges[:len(v.edges)-1]) // the view is a superset
		}
		if v.fn != "" {
			p := append(f.randomEdges(f.rng.Intn(3)), v.edges...)
			p = append(p, f.randomEdges(f.rng.Intn(3))...)
			if f.rng.Intn(3) == 0 {
				p = append(p, sentinel())
			}
			paths = append(paths, p)
		}
	}
	for i := 0; i < 20; i++ {
		u := f.randomEdges(1 + f.rng.Intn(10))
		if f.rng.Intn(3) == 0 {
			u = append(u, sentinel())
		}
		universes = append(universes, u)
		paths = append(paths, f.randomEdges(1+f.rng.Intn(8)))
	}
	for _, u := range universes {
		got, want := PlanCover(rel, u), refPlanCover(f.model, u)
		if !samePlan(got, want) {
			f.t.Fatalf("%s: PlanCover(%v) = %+v, reference %+v", stage, u, got, want)
		}
	}
	for _, p := range paths {
		for _, fn := range catalogFuncs {
			for _, measure := range []string{"", "w"} {
				for _, use := range []bool{true, false} {
					got, want := coverPath(rel, p, fn.Name, measure, use), refCoverPath(f.model, p, fn.Name, measure, use)
					if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						f.t.Fatalf("%s: coverPath(%v, %s, %q, %v) = %+v, reference %+v", stage, p, fn.Name, measure, use, got, want)
					}
				}
			}
		}
	}
}

// samePlan compares plans field by field, a nil list equal to an empty one.
func samePlan(a, b CoverPlan) bool {
	eq := func(x, y any, n int) bool { return n == 0 || reflect.DeepEqual(x, y) }
	return len(a.Views) == len(b.Views) && eq(a.Views, b.Views, len(a.Views)) &&
		len(a.AggViews) == len(b.AggViews) && eq(a.AggViews, b.AggViews, len(a.AggViews)) &&
		len(a.Edges) == len(b.Edges) && eq(a.Edges, b.Edges, len(a.Edges))
}

// TestPlansMatchScanAndSortReference: over random view sets, the catalog
// planners produce exactly the plans and path covers of the scan-and-sort
// planners — which SUM view folds where included — and keep doing so after
// every kind of change to the view set (materialize, drop all) and across a
// save and reload.
func TestPlansMatchScanAndSortReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		f := newCatalogFixture(t, seed)
		f.check(f.rel, "no views")
		f.populate(3+f.rng.Intn(8), 6+f.rng.Intn(16))
		f.check(f.rel, "populated")

		dir := t.TempDir()
		if err := f.rel.Save(dir); err != nil {
			t.Fatal(err)
		}
		loaded, err := colstore.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		f.check(loaded, "after Save and Load")
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}

		f.rel.DropAllViews()
		f.model = newViewModel()
		f.check(f.rel, "DropAllViews")
		f.populate(2, 4)
		f.check(f.rel, "re-populated")
	}
}

// catalogBenchRel builds a relation with n views — half graph views of 2-4
// edges, half SUM aggregate views of 2-4 edges, the agg-zipf-views mix — over
// 400 edges, every view materialized from a shared pool of edges so queries
// find candidates.
func catalogBenchRel(tb testing.TB, n int) *colstore.Relation {
	rng := rand.New(rand.NewSource(9))
	rel := colstore.NewRelation(0)
	for r := 0; r < 200; r++ {
		cells := make([]colstore.Cell, 20)
		for j := range cells {
			cells[j] = colstore.Cell{Edge: colstore.EdgeID(rng.Intn(400)), Value: 1, HasValue: true}
		}
		rel.AppendRow(cells)
	}
	edges := func() []colstore.EdgeID {
		out := make([]colstore.EdgeID, 2+rng.Intn(3))
		for i := range out {
			out[i] = colstore.EdgeID(rng.Intn(400))
		}
		return out
	}
	for i := 0; i < n/2; i++ {
		if _, err := rel.MaterializeView(fmt.Sprintf("v%d", i), edges()); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n-n/2; i++ {
		path := edges()
		if i%4 == 0 {
			path[0] = 7 // several views start where the benchmark path does
		}
		if _, err := rel.MaterializeAggView(fmt.Sprintf("p%d", i), path, Sum); err != nil {
			tb.Fatal(err)
		}
	}
	return rel
}

// benchPathEdges is a 6-edge path starting at edge 7.
var benchPathEdges = []colstore.EdgeID{7, 11, 42, 99, 150, 303}

// BenchmarkPlanCover prices the §5.3 graph-view rewrite of a 6-edge query
// against 0, 100 and 1 000 materialized views; views=0 is the path every
// view-less workload takes.
func BenchmarkPlanCover(b *testing.B) {
	for _, n := range []int{0, 100, 1000} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			rel := catalogBenchRel(b, n)
			universe := append([]colstore.EdgeID(nil), benchPathEdges...)
			if n > 0 {
				// Make the query a superset of one graph view and one
				// aggregate view so the greedy loop has work to do.
				universe = append(universe, rel.View("v1").Edges...)
				universe = append(universe, rel.AggView("p1").Path...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PlanCover(rel, universe)
			}
		})
	}
}

// BenchmarkCoverPath prices the §5.1.2 aggregate-view cover of one 6-edge
// path against 0, 100 and 1 000 materialized views.
func BenchmarkCoverPath(b *testing.B) {
	for _, n := range []int{0, 100, 1000} {
		b.Run(fmt.Sprintf("views=%d", n), func(b *testing.B) {
			rel := catalogBenchRel(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coverPath(rel, benchPathEdges, Sum.Name, "", true)
			}
		})
	}
}

// TestCoverPathAllocs: covering a path over a 100-view relation allocates
// its output segments and nothing else — the per-position candidate lists
// come from the catalog.
func TestCoverPathAllocs(t *testing.T) {
	rel := catalogBenchRel(t, 100)
	path := append([]colstore.EdgeID(nil), benchPathEdges...)
	path = append(path, rel.AggView("p1").Path...)
	if segs := coverPath(rel, path, Sum.Name, "", true); len(segs) == len(path) {
		t.Fatalf("fixture: no view covers %v", path)
	}
	if n := testing.AllocsPerRun(100, func() { coverPath(rel, path, Sum.Name, "", true) }); n != 1 {
		t.Fatalf("coverPath allocates %v times per call, want 1 (its output)", n)
	}
}

package grove

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// pagedCorpus builds a store whose measure columns have the value shapes the
// block encodings of older snapshots were made for, plus the floating-point
// edge cases the bit-identity claim is about (−0, ±MaxFloat64, denormals;
// records reject non-finite measures), with a sprinkling of soft deletions.
// testdata/legacy-blocks holds this corpus saved with those encodings.
//
//	A→B  constant            → run-length blocks
//	B→C  16 distinct values  → dictionary blocks
//	C→D  monotonic integers  → XOR-delta blocks (and MIN zone-skip fodder)
//	D→E  pseudo-random bits  → raw blocks
//
// n should exceed 4096 so every column spans several blocks.
func pagedCorpus(t *testing.T, st *Store, n int) {
	t.Helper()
	rnd := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	for i := 0; i < n; i++ {
		rec := NewRecord()
		if err := rec.SetEdge("A", "B", 7); err != nil {
			t.Fatal(err)
		}
		if err := rec.SetEdge("B", "C", float64(i%16)*1.25); err != nil {
			t.Fatal(err)
		}
		if err := rec.SetEdge("C", "D", float64(1<<20+i)); err != nil {
			t.Fatal(err)
		}
		var v float64
		switch i % 97 {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = math.MaxFloat64
		case 2:
			v = -math.MaxFloat64
		case 3:
			v = 5e-324 // smallest denormal
		default:
			v = math.Float64frombits(next())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i)
			}
		}
		if err := rec.SetEdge("D", "E", v); err != nil {
			t.Fatal(err)
		}
		if err := rec.SetEdgeNamed("A", "B", "w", float64(i%5)); err != nil {
			t.Fatal(err)
		}
		id := st.Add(rec)
		if i%17 == 0 {
			if _, err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// raggedColumns adds records whose columns end where pagedCorpus's do not:
// E→F runs a block and 300 values, so its tail ends mid-chunk; F→G ends one
// value into its second chunk, G→H after 37 values, and H→I holds one.
func raggedColumns(t *testing.T, st *Store) {
	t.Helper()
	lens := []struct {
		from, to string
		n        int
	}{{"E", "F", 4096 + 300}, {"F", "G", 129}, {"G", "H", 37}, {"H", "I", 1}}
	for i := 0; i < lens[0].n; i++ {
		rec := NewRecord()
		for j, e := range lens {
			if i < e.n {
				if err := rec.SetEdge(e.from, e.to, float64(i)*1.25+float64(j)/3); err != nil {
					t.Fatal(err)
				}
			}
		}
		st.Add(rec)
	}
}

// aggAnswers runs the row and scalar aggregation surface once and returns
// everything bitwise-comparable.
type aggAnswers struct {
	matched     int
	rows        map[string][]uint64 // agg name → FoldAcrossPaths bits in record order
	ids         map[string][]uint32
	scalar      map[string]uint64 // agg name → scalar fold bits
	zoneSkipped map[string]bool   // agg name → the scalar took the zone-skipping branch
}

// collectAnswers aggregates g with every built-in function, as rows and as a
// scalar, and fails unless each scalar is bit for bit the fold of its rows.
func collectAnswers(t *testing.T, st *Store, g *Graph) aggAnswers {
	t.Helper()
	out := aggAnswers{rows: map[string][]uint64{}, ids: map[string][]uint32{},
		scalar: map[string]uint64{}, zoneSkipped: map[string]bool{}}
	res, err := st.Match(g)
	if err != nil {
		t.Fatal(err)
	}
	out.matched = res.NumRecords()
	for _, f := range []AggFunc{Sum, Min, Max, Count} {
		rows, err := st.Aggregate(g, f)
		if err != nil {
			t.Fatal(err)
		}
		folded := rows.FoldAcrossPaths()
		bits := make([]uint64, len(folded))
		for i, v := range folded {
			bits[i] = math.Float64bits(v)
		}
		out.rows[f.Name] = bits
		out.ids[f.Name] = rows.RecordIDs

		sc, err := scalarOf(st, g, f)
		if err != nil {
			t.Fatal(err)
		}
		out.scalar[f.Name] = math.Float64bits(sc.Value)
		out.zoneSkipped[f.Name] = sc.ZoneSkipped

		// The scalar plan must agree with folding the rows, whatever plan
		// answered it.
		acc, any := f.Identity, false
		for _, b := range bits {
			if v := math.Float64frombits(b); !math.IsNaN(v) {
				acc = f.Fold(acc, v)
				any = true
			}
		}
		if !any {
			acc = math.NaN()
		}
		if math.Float64bits(acc) != out.scalar[f.Name] {
			t.Fatalf("%s scalar %x disagrees with row fold %x",
				f.Name, out.scalar[f.Name], math.Float64bits(acc))
		}
	}
	return out
}

func diffAnswers(t *testing.T, label string, want, got aggAnswers) {
	t.Helper()
	if want.matched != got.matched {
		t.Fatalf("%s: matched %d records, want %d", label, got.matched, want.matched)
	}
	for name, wbits := range want.rows {
		gbits := got.rows[name]
		if len(gbits) != len(wbits) {
			t.Fatalf("%s: %s returned %d rows, want %d", label, name, len(gbits), len(wbits))
		}
		for i := range wbits {
			if gbits[i] != wbits[i] {
				t.Fatalf("%s: %s row %d (record %d) = %x, want %x",
					label, name, i, got.ids[name][i], gbits[i], wbits[i])
			}
		}
		if got.scalar[name] != want.scalar[name] {
			t.Fatalf("%s: %s scalar = %x, want %x", label, name, got.scalar[name], want.scalar[name])
		}
	}
}

// TestPagedBitIdentical is the paged store's correctness claim: a store
// reloaded through the paged v2 snapshot — lazily faulting blocks through a
// buffer pool — answers every query bit-identically to the in-memory store it
// was saved from, at pool budgets down to 1% of the logical column bytes.
func TestPagedBitIdentical(t *testing.T) {
	const n = 3*4096/2 + 37 // several blocks per column, ragged tail
	mem := Open()
	pagedCorpus(t, mem, n)
	path := []string{"A", "B", "C", "D", "E"}
	want := collectAnswers(t, mem, PathOf(path...).ToGraph())
	if want.matched == 0 {
		t.Fatal("corpus matched no records; the comparison would be vacuous")
	}

	dir := t.TempDir()
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	st := loaded.StorageStats()
	if st.OnDiskBytes == 0 || st.ResidentBytes >= st.OnDiskBytes {
		t.Fatalf("loaded store: %d value bytes on disk, %d resident; the snapshot did not load as paged prefixes",
			st.OnDiskBytes, st.ResidentBytes)
	}

	for _, pct := range []int64{1, 10, 50, 0} {
		budget := st.LogicalBytes * pct / 100 // 0 = unbounded
		loaded.SetPageCacheBytes(budget)
		got := collectAnswers(t, loaded, PathOf(path...).ToGraph())
		diffAnswers(t, "paged", want, got)
		if err := loaded.Stats().Err; err != nil {
			t.Fatalf("budget %d%%: page error after clean differential run: %v", pct, err)
		}
		if budget > 0 {
			if res := loaded.StorageStats().Pool.ResidentBytes; res > budget+8*4096 {
				t.Fatalf("budget %d bytes but %d resident (more than one block over)", budget, res)
			}
		}
	}

	// Named measures page too.
	diffNamedMeasure(t, "paged", mem, loaded)
}

// diffNamedMeasure fails unless got folds pagedCorpus's named measure "w"
// bit-identically to want.
func diffNamedMeasure(t *testing.T, label string, want, got *Store) {
	t.Helper()
	fold := func(st *Store) []float64 {
		res, err := aggOn(st, PathOf("A", "B").ToGraph(), Sum, "w")
		if err != nil {
			t.Fatal(err)
		}
		return res.FoldAcrossPaths()
	}
	wf, gf := fold(want), fold(got)
	if len(wf) != len(gf) {
		t.Fatalf("%s: named measure rows %d, want %d", label, len(gf), len(wf))
	}
	for i := range wf {
		if math.Float64bits(wf[i]) != math.Float64bits(gf[i]) {
			t.Fatalf("%s: named measure row %d: %x want %x", label, i, math.Float64bits(gf[i]), math.Float64bits(wf[i]))
		}
	}
}

// TestPagePoolGaugeHonoursACut: the pool's resident gauge counts every chunk
// the pool owns, the free ones kept for later faults included, and a budget
// cut lets go of those beyond the new budget: once the readers have unpinned,
// the gauge is at most the budget.
func TestPagePoolGaugeHonoursACut(t *testing.T) {
	mem := Open()
	pagedCorpus(t, mem, 3*4096/2+37)
	raggedColumns(t, mem)
	dir := t.TempDir()
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	gauge := func() int64 {
		t.Helper()
		const name = MetricPagePoolResidentBytes + " "
		for _, line := range strings.Split(metricsText(t, loaded), "\n") {
			if v, ok := strings.CutPrefix(line, name); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return int64(f)
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}
	logical := loaded.StorageStats().LogicalBytes
	loaded.SetPageCacheBytes(logical / 4)
	for _, path := range [][]string{{"A", "B", "C", "D", "E"}, {"E", "F", "G", "H"}, {"F", "G", "H", "I"}, {"D", "E", "F"}} {
		collectAnswers(t, loaded, PathOf(path...).ToGraph())
	}
	if g, pool := gauge(), loaded.StorageStats().Pool; g != pool.ResidentBytes || g == 0 || g > logical/4 {
		t.Fatalf("at a quarter of the data: gauge %d, pool stats %d, budget %d", g, pool.ResidentBytes, logical/4)
	}
	cut := logical / 100
	loaded.SetPageCacheBytes(cut)
	if g := gauge(); g > cut {
		t.Fatalf("after a cut to %d bytes the gauge reads %d", cut, g)
	}
}

// TestPagedZoneSkipEngages asserts the scalar MIN plan actually skips blocks
// on a favourable column (monotonic values: only the first block can hold the
// minimum) — guarding against the skip silently degrading to a full scan.
func TestPagedZoneSkipEngages(t *testing.T) {
	mem := Open()
	pagedCorpus(t, mem, 3*4096)
	dir := t.TempDir()
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	res, err := scalarOf(loaded, PathOf("C", "D").ToGraph(), Min)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ZoneSkipped {
		t.Fatal("scalar MIN over a single-edge path did not take the zone-skipping plan")
	}
	if res.BlocksSkipped == 0 {
		t.Fatalf("monotonic column: expected skipped blocks, scanned=%d skipped=%d",
			res.BlocksScanned, res.BlocksSkipped)
	}
	// Record 0 (value 1<<20) is deleted by the corpus; the surviving minimum
	// is record 1's value. Spell it out rather than trusting the scan.
	if got := math.Float64bits(res.Value); got != math.Float64bits(float64(1<<20+1)) {
		t.Fatalf("zone-skipped MIN = %x (%v), want %v", got, res.Value, float64(1<<20+1))
	}
}

// TestPagedShardedBitIdentical runs the same differential across a sharded
// store: in-memory N-shard answers, reloaded paged N-shard answers at a 1%
// pool budget, and the single-shard reference must all agree bit-for-bit.
func TestPagedShardedBitIdentical(t *testing.T) {
	const n = 4096 + 513
	ref := Open()
	pagedCorpus(t, ref, n)
	path := []string{"A", "B", "C", "D", "E"}
	want := collectAnswers(t, ref, PathOf(path...).ToGraph())

	sharded := NewSharded(3)
	pagedCorpus(t, sharded, n)
	diffAnswers(t, "sharded in-memory", want, collectAnswers(t, sharded, PathOf(path...).ToGraph()))

	dir := t.TempDir()
	if err := sharded.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Stats().Shards != 3 {
		t.Fatalf("reloaded store has %d shards, want 3", loaded.Stats().Shards)
	}
	loaded.SetPageCacheBytes(loaded.StorageStats().LogicalBytes / 100)
	diffAnswers(t, "sharded paged", want, collectAnswers(t, loaded, PathOf(path...).ToGraph()))
	if err := loaded.Stats().Err; err != nil {
		t.Fatal(err)
	}
}

// branchCorpus loads n records over two branching regions: a diamond
// A→B→D, A→C→D with a tail D→E, and a fan X→Y, X→Z whose source node X
// carries a node measure in two records of three. X's measure lies far
// outside the edge values on either side, so a MIN or MAX that left it out
// would be visibly wrong.
func branchCorpus(t *testing.T, st *Store, n int) {
	t.Helper()
	legs := [][2]string{{"A", "B"}, {"B", "D"}, {"A", "C"}, {"C", "D"}, {"D", "E"}, {"X", "Y"}, {"X", "Z"}}
	for i := 0; i < n; i++ {
		rec := NewRecord()
		for j, leg := range legs {
			if (i+j)%11 == 0 {
				continue // a missing measure: that record's path folds to NULL
			}
			v := float64((i*7+j*13)%100) - 50
			if (i+j)%97 == 0 {
				v = math.Copysign(0, -1)
			}
			if err := rec.SetEdge(leg[0], leg[1], v); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 != 0 {
			if err := rec.SetNode("X", math.Copysign(1000+float64(i), float64(i%2)-0.5)); err != nil {
				t.Fatal(err)
			}
		}
		id := st.Add(rec)
		if i%29 == 0 {
			if _, err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPagedScalarMatchesRows is the scalar differential over the shapes a
// scalar plan can take: branching query graphs (two maximal paths each),
// paths planned to one raw edge, to one aggregate view, to several segments,
// and paths carrying a node measure; on 1 and 3 shards, in memory and
// reloaded at a 1% pool, with SUM and MIN aggregate views materialized.
// Every scalar must be bit for bit the fold of its rows (collectAnswers),
// and the zone-skipping branch must run exactly where the plan allows it.
func TestPagedScalarMatchesRows(t *testing.T) {
	const n = 4096 + 513
	graph := func(legs ...[2]string) *Graph {
		g := NewGraph()
		for _, l := range legs {
			g.AddEdge(l[0], l[1])
		}
		return g
	}
	cases := []struct {
		name string
		g    *Graph
		skip map[string]bool // functions whose scalar zone-skips
	}{
		{"fan of raw edges", graph([2]string{"A", "B"}, [2]string{"A", "C"}),
			map[string]bool{"MIN": true, "MAX": true}},
		{"diamond of MIN views", graph([2]string{"A", "B"}, [2]string{"B", "D"}, [2]string{"A", "C"}, [2]string{"C", "D"}),
			map[string]bool{"MIN": true}},
		{"diamond with a tail", graph([2]string{"A", "B"}, [2]string{"B", "D"}, [2]string{"A", "C"}, [2]string{"C", "D"}, [2]string{"D", "E"}),
			nil},
		{"fan with a node measure", graph([2]string{"X", "Y"}, [2]string{"X", "Z"}), nil},
	}
	for _, shards := range []int{1, 3} {
		st := NewSharded(shards)
		branchCorpus(t, st, n)
		for _, v := range []struct {
			name  string
			f     AggFunc
			nodes []string
		}{{"minABD", Min, []string{"A", "B", "D"}}, {"minACD", Min, []string{"A", "C", "D"}}, {"sumABD", Sum, []string{"A", "B", "D"}}} {
			if err := st.MaterializeAggViewPath(v.name, v.f, "", v.nodes...); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := st.Save(dir); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded.SetPageCacheBytes(loaded.StorageStats().LogicalBytes / 100)
		for _, c := range cases {
			label := fmt.Sprintf("%d shard(s), %s", shards, c.name)
			if rows, err := st.Aggregate(c.g, Count); err != nil || len(rows.Paths) < 2 {
				t.Fatalf("%s: not a branching graph (%v)", label, err)
			}
			mem := collectAnswers(t, st, c.g)
			if mem.matched == 0 {
				t.Fatalf("%s: no record matches; the differential would be vacuous", label)
			}
			paged := collectAnswers(t, loaded, c.g)
			diffAnswers(t, label+", reloaded at 1%", mem, paged)
			for _, got := range []aggAnswers{mem, paged} {
				for f, skipped := range got.zoneSkipped {
					if skipped != c.skip[f] {
						t.Errorf("%s: %s scalar zone-skipped = %v, want %v", label, f, skipped, c.skip[f])
					}
				}
			}
		}
		if err := loaded.Stats().Err; err != nil {
			t.Fatal(err)
		}
		loaded.Close()
	}
}

package grove

import (
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
	matched int
	rows    map[string][]uint64 // agg name → FoldAcrossPaths bits in record order
	ids     map[string][]uint32
	scalar  map[string]uint64 // agg name → scalar fold bits
}

func collectAnswers(t *testing.T, st *Store, nodes ...string) aggAnswers {
	t.Helper()
	out := aggAnswers{rows: map[string][]uint64{}, ids: map[string][]uint32{}, scalar: map[string]uint64{}}
	res, err := st.Match(PathOf(nodes...).ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	out.matched = res.NumRecords()
	for _, f := range []AggFunc{Sum, Min, Max, Count} {
		rows, err := st.Aggregate(PathOf(nodes...).ToGraph(), f)
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

		sc, err := st.AggregateScalar(PathOf(nodes...).ToGraph(), f)
		if err != nil {
			t.Fatal(err)
		}
		out.scalar[f.Name] = math.Float64bits(sc.Value)

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
	want := collectAnswers(t, mem, path...)
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
	if st.PagedColumns == 0 {
		t.Fatal("loaded store has no paged columns; the snapshot did not use the v2 format")
	}

	for _, pct := range []int64{1, 10, 50, 0} {
		budget := st.LogicalBytes * pct / 100 // 0 = unbounded
		loaded.SetPageCacheBytes(budget)
		got := collectAnswers(t, loaded, path...)
		diffAnswers(t, "paged", want, got)
		if err := loaded.PageError(); err != nil {
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
		res, err := st.AggregateMeasure(PathOf("A", "B").ToGraph(), Sum, "w")
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
		collectAnswers(t, loaded, path...)
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

	res, err := loaded.AggregateScalar(PathOf("C", "D").ToGraph(), Min)
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
	want := collectAnswers(t, ref, path...)

	sharded := NewSharded(3)
	pagedCorpus(t, sharded, n)
	diffAnswers(t, "sharded in-memory", want, collectAnswers(t, sharded, path...))

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
	diffAnswers(t, "sharded paged", want, collectAnswers(t, loaded, path...))
	if err := loaded.PageError(); err != nil {
		t.Fatal(err)
	}
}

package colstore

import (
	"bytes"
	"math"
	"testing"
)

// TestDecodeBlockAllocs pins the block decoders' steady-state allocation
// count at zero: they run on every buffer pool miss, and the hotalloc lint's
// static proof deserves a dynamic witness.
func TestDecodeBlockAllocs(t *testing.T) {
	enc := &blockEncoder{}
	cases := map[string][]float64{
		"rle":  {7, 7, 7, 7, 7, 7, 7, 7},
		"dict": {1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1},
		"xor":  {1048576, 1048577, 1048578, 1048579, 1048580, 1048581},
		"raw":  {math.Pi, -math.E, 1e-300, math.Copysign(0, -1), 2.5e17, -9e-8},
	}
	for name, vals := range cases {
		tag, payload, err := enc.encode(vals)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := EncodingName(int(tag)); got != name {
			t.Fatalf("fixture %q encoded as %q; fix the fixture", name, got)
		}
		dst := make([]float64, len(vals))
		allocs := testing.AllocsPerRun(100, func() {
			if err := decodeBlock(tag, payload, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s decode allocates %v per run, want 0", name, allocs)
		}
	}
}

// reloadPaged saves r and loads it back, so that its measure columns are
// paged, with a buffer pool of the given budget.
func reloadPaged(tb testing.TB, r *Relation, budget int64) *Relation {
	tb.Helper()
	dir := tb.TempDir()
	if err := r.Save(dir); err != nil {
		tb.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { loaded.Close() })
	loaded.SetPageCacheBytes(budget)
	return loaded
}

// pinnedBlocks counts the blocks some reader of r still holds: a budget of
// nothing evicts every frame but the pinned ones.
func pinnedBlocks(r *Relation) int {
	r.SetPageCacheBytes(1)
	return r.PagePoolStats().ResidentBlocks
}

// TestPageFaultAllocs pins the page fault itself at zero allocations: with a
// pool too small to keep anything, every gather over columns of mixed sizes
// faults each block in, and as long as every block fills at least half of a
// full block's buffer — the bound on what the pool recycles — the loop
// allocates nothing once that buffer exists: not the frame, not the decoded
// values, not the encoded bytes.
func TestPageFaultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := NewRelation(0)
	sizes := []int{BlockValues + 2100, 3000, 2*BlockValues + 2048, 2500}
	for i := 0; i < sizes[2]; i++ {
		rec := r.NewRecord()
		for e, n := range sizes {
			if i < n {
				r.SetEdgeMeasure(rec, EdgeID(e+1), float64(i)*1.1+float64(e)) // full mantissas: raw blocks
			}
		}
	}
	loaded := reloadPaged(t, r, 1)
	recs := make([]uint32, 0, sizes[2]/3+1)
	for i := 0; i < sizes[2]; i += 3 {
		recs = append(recs, uint32(i))
	}
	values, present := make([]float64, len(recs)), make([]bool, len(recs))
	sweep := func() {
		for e := range sizes {
			loaded.MeasureColumn(EdgeID(e+1)).GatherInto(recs, values, present)
		}
	}
	sweep() // allocates the recycled buffer and grows the rank scratch to its plateau
	before := loaded.PagePoolStats()
	allocs := testing.AllocsPerRun(20, sweep)
	after := loaded.PagePoolStats()
	if allocs != 0 {
		t.Errorf("a sweep of cold gathers allocates %v times, want 0", allocs)
	}
	if after.Hits != before.Hits || after.Misses-before.Misses < 21*7 {
		t.Errorf("the sweeps were not cold: %d hits, %d misses over 21 sweeps of 7 blocks",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if n := pinnedBlocks(loaded); n != 0 {
		t.Errorf("%d blocks left pinned after GatherInto returned", n)
	}
	if err := loaded.PageError(); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateSkipAllocs pins the zone-skipping scan's steady-state
// allocations: once the touched blocks are resident (pool hits) and the rank
// scratch has plateaued, repeated scans must not allocate.
func TestAggregateSkipAllocs(t *testing.T) {
	r := NewRelation(0)
	const n = 2*BlockValues + 100
	recs := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		rec := r.NewRecord()
		r.SetEdgeMeasure(rec, 1, float64(1<<20+i))
		recs = append(recs, rec)
	}
	loaded := reloadPaged(t, r, DefaultPageCacheBytes)
	col := loaded.MeasureColumn(1)
	if col == nil {
		t.Fatal("loaded relation lost column 1")
	}

	// Warm: fault the blocks in and let the rank scratch grow.
	if _, folded, _, _ := col.AggregateSkip(recs, math.Inf(1), true); folded == 0 {
		t.Fatal("warm scan folded nothing")
	}
	allocs := testing.AllocsPerRun(50, func() {
		col.AggregateSkip(recs, math.Inf(1), true)
	})
	if allocs > 0 {
		t.Errorf("steady-state AggregateSkip allocates %v per run, want 0", allocs)
	}
	if n := pinnedBlocks(loaded); n != 0 {
		t.Errorf("%d blocks left pinned after AggregateSkip returned", n)
	}
	if err := loaded.PageError(); err != nil {
		t.Fatal(err)
	}
}

// TestResaveAndMaterializeBypassPool: saving a paged relation again and
// materializing a paged column for a write both stream every block exactly
// once, so they decode past the pool: no fault counted, no frame taken, the
// query working set left alone.
func TestResaveAndMaterializeBypassPool(t *testing.T) {
	r := NewRelation(0)
	for i := 0; i < 3*BlockValues; i++ {
		r.SetEdgeMeasure(r.NewRecord(), 1, float64(i)*1.1)
	}
	loaded := reloadPaged(t, r, DefaultPageCacheBytes)
	col := loaded.MeasureColumn(1)
	col.Get(0) // one block in the pool, to be left alone
	before := loaded.PagePoolStats()

	var first, again bytes.Buffer
	if err := writeMeasureColumn(&first, r.MeasureColumn(1)); err != nil {
		t.Fatal(err)
	}
	if err := writeMeasureColumn(&again, col); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), first.Bytes()) {
		t.Fatal("re-saving the paged column wrote different bytes than saving the resident one")
	}
	if after := loaded.PagePoolStats(); after != before {
		t.Errorf("re-save went through the pool: %+v, was %+v", after, before)
	}

	loaded.SetEdgeMeasure(0, 1, 42) // materializes the column
	after := loaded.PagePoolStats()
	if after.Misses != before.Misses || after.ResidentBlocks != 0 || after.ResidentBytes != 0 {
		t.Errorf("materialize went through the pool or left the column's blocks in it: %+v, was %+v", after, before)
	}
	if v, _ := col.Get(1); col.isPaged() || math.Float64bits(v) != math.Float64bits(1.1) {
		t.Errorf("after a write the column is paged=%v and record 1 reads %v", col.isPaged(), v)
	}
}

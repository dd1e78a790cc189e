package colstore

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"grove/internal/pagepool"
	"grove/internal/raceflag"
)

// TestDecodeBlockAllocs pins the raw block decoders' steady-state allocation
// count at zero — into a value slice (rawInto, the save and materialize
// path) and into a pool frame's chunks (decodeFrame, every buffer pool miss)
// — on blocks of one value, one partial chunk, several chunks ending
// mid-chunk and a full block: the hotalloc lint's static proof deserves a
// dynamic witness.
func TestDecodeBlockAllocs(t *testing.T) {
	pool := pagepool.New(0)
	for _, n := range []int{1, 37, 300, BlockValues} {
		payload, err := rawBlock(nil, rawTestValues(n))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		fr := pool.Reserve(n)
		allocs := testing.AllocsPerRun(100, func() {
			if err := rawInto(payload, dst); err != nil {
				t.Fatal(err)
			}
			if err := decodeFrame(payload, fr); err != nil {
				t.Fatal(err)
			}
		})
		pool.Abandon(fr)
		if allocs != 0 {
			t.Errorf("%d values: decode allocates %v per run, want 0", n, allocs)
		}
	}
}

// rawTestValues is n values with full mantissas, signed zeros and
// extremes among them.
func rawTestValues(n int) []float64 {
	vals := make([]float64, n)
	extremes := []float64{math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := range vals {
		vals[i] = float64(i)*1.1 - 7
		if i%97 < len(extremes) {
			vals[i] = extremes[i%97]
		}
	}
	return vals
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
	return r.StorageStats().Pool.ResidentBlocks
}

// unlikeLengths is a relation of one column per length: a single value, short
// single-block columns ending mid-chunk, a block plus a short tail, and three
// blocks plus a five-value tail.
var unlikeLengths = []int{1, 37, 300, 2500, BlockValues + 17, 3*BlockValues + 5}

func unlikeLengthsRelation() *Relation {
	r := NewRelation(0)
	longest := slices.Max(unlikeLengths)
	for i := 0; i < longest; i++ {
		var cells []Cell
		for e, n := range unlikeLengths {
			if i < n {
				cells = append(cells, Cell{Edge: EdgeID(e + 1), Value: float64(i)*1.1 + float64(e), HasValue: true})
			}
		}
		r.AppendRow(cells)
	}
	return r
}

// TestPageFaultAllocs pins the page fault itself at zero allocations on any
// mix of block lengths: with a pool too small to keep anything, every gather
// over the columns of unlikeLengths faults each block in, and once the pool
// has held the longest block the loop allocates nothing — not the frame, not
// its chunks, not the encoded bytes.
func TestPageFaultAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	loaded := reloadPaged(t, unlikeLengthsRelation(), 1)
	longest := slices.Max(unlikeLengths)
	recs := make([]uint32, 0, longest/3+1)
	for i := 0; i < longest; i += 3 {
		recs = append(recs, uint32(i))
	}
	values, present := make([]float64, len(recs)), make([]bool, len(recs))
	blocks := 0
	for _, n := range unlikeLengths {
		blocks += (n + BlockValues - 1) / BlockValues
	}
	sweep := func() {
		for e := range unlikeLengths {
			loaded.MeasureColumn(EdgeID(e+1)).GatherInto(recs, values, present)
		}
	}
	sweep() // the pool grows to the longest block, the rank scratch to its plateau
	before := loaded.StorageStats().Pool
	allocs := testing.AllocsPerRun(20, sweep)
	after := loaded.StorageStats().Pool
	if allocs != 0 {
		t.Errorf("a sweep of cold gathers allocates %v times, want 0", allocs)
	}
	if after.Hits != before.Hits || after.Misses-before.Misses < int64(21*blocks) {
		t.Errorf("the sweeps were not cold: %d hits, %d misses over 21 sweeps of %d blocks",
			after.Hits-before.Hits, after.Misses-before.Misses, blocks)
	}
	if n := pinnedBlocks(loaded); n != 0 {
		t.Errorf("%d blocks left pinned after GatherInto returned", n)
	}
	if err := loaded.PageError(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPageFaultAllocs is the same guarantee in the regime a pool serves
// most of its life: a quarter of the data cached, Zipf-skewed point reads over
// the blocks of unlikeLengths, so that hits and faults interleave and every
// fault evicts blocks of other lengths than its own. Once the pool has owned
// its budget, no access allocates.
func TestWarmPageFaultAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := unlikeLengthsRelation()
	var total int64
	type block struct {
		col      *MeasureColumn
		lo, size int
	}
	var blocks []block
	for _, n := range unlikeLengths {
		total += 8 * int64(n)
	}
	loaded := reloadPaged(t, r, total/4)
	for e, n := range unlikeLengths {
		for lo := 0; lo < n; lo += BlockValues {
			blocks = append(blocks, block{loaded.MeasureColumn(EdgeID(e + 1)), lo, min(BlockValues, n-lo)})
		}
	}
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(blocks)-1))
	order := rng.Perm(len(blocks)) // popularity rank -> block, unrelated to length
	reads := make([]block, 2000)
	for i := range reads {
		b := blocks[order[zipf.Uint64()]]
		b.lo += rng.Intn(b.size) // the record whose value is read; ids and ranks coincide here
		reads[i] = b
	}
	var sink float64
	pass := func() {
		for _, b := range reads {
			v, _ := b.col.Get(uint32(b.lo))
			sink += v
		}
	}
	pass() // the pool grows to its budget
	before := loaded.StorageStats().Pool
	allocs := testing.AllocsPerRun(5, pass)
	after := loaded.StorageStats().Pool
	if allocs != 0 {
		t.Errorf("a pass of warm reads allocates %v times, want 0", allocs)
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits == 0 || misses == 0 {
		t.Errorf("the reads were not warm: %d hits, %d misses", hits, misses)
	}
	if after.ResidentBytes > total/4 {
		t.Errorf("the pool owns %d bytes over a budget of %d", after.ResidentBytes, total/4)
	}
	if n := pinnedBlocks(loaded); n != 0 {
		t.Errorf("%d blocks left pinned after Get returned", n)
	}
	if err := loaded.PageError(); err != nil {
		t.Fatal(err)
	}
	_ = sink
}

// TestAggregateSkipAllocs pins the zone-skipping scan's steady-state
// allocations: once the touched blocks are resident (pool hits) and the rank
// scratch has plateaued, repeated scans must not allocate.
func TestAggregateSkipAllocs(t *testing.T) {
	r := NewRelation(0)
	const n = 2*BlockValues + 100
	recs := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, appendMeasured(r, map[EdgeID]float64{1: float64(1<<20 + i)}))
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
		appendMeasured(r, map[EdgeID]float64{1: float64(i) * 1.1})
	}
	loaded := reloadPaged(t, r, DefaultPageCacheBytes)
	col := loaded.MeasureColumn(1)
	col.Get(0) // one block in the pool, to be left alone
	before := loaded.StorageStats().Pool

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
	if after := loaded.StorageStats().Pool; after != before {
		t.Errorf("re-save went through the pool: %+v, was %+v", after, before)
	}

	if err := loaded.AppendEdge(0, 1, "", 42, true); err != nil { // a write inside the prefix materializes the column
		t.Fatal(err)
	}
	after := loaded.StorageStats().Pool
	if after.Misses != before.Misses || after.ResidentBlocks != 0 || after.ResidentBytes != 0 {
		t.Errorf("materialize went through the pool or left the column's blocks in it: %+v, was %+v", after, before)
	}
	if v, _ := col.Get(1); col.prefix != nil || math.Float64bits(v) != math.Float64bits(1.1) {
		t.Errorf("after a write the column keeps a prefix of %d values and record 1 reads %v", col.prefixLen(), v)
	}
}

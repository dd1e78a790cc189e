package colstore

import (
	"math"
	"math/rand"
	"testing"

	"grove/internal/agg"
)

// randomColumn builds a column whose presence bitmap mixes all three
// container layouts: a sparse chunk, a dense chunk, and a run-heavy chunk,
// with a hole at chunk 2.
func randomColumn(rng *rand.Rand) *MeasureColumn {
	c := NewMeasureColumn()
	set := func(rec uint32) {
		c.Set(rec, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(8)-4)))
	}
	for i := 0; i < rng.Intn(200); i++ {
		set(uint32(rng.Intn(1 << 16)))
	}
	if rng.Intn(2) == 0 {
		for i := 0; i < 3000+rng.Intn(4000); i++ {
			set(1<<16 + uint32(rng.Intn(1<<16)))
		}
	}
	if rng.Intn(2) == 0 {
		lo := 3<<16 + uint32(rng.Intn(60000))
		for k := uint32(0); k < uint32(rng.Intn(2000)); k++ {
			set(lo + k)
		}
	}
	c.present.RunOptimize()
	return c
}

// randomRecs draws a strictly ascending query set mixing present records,
// absent records, and records in empty chunks.
func randomRecs(rng *rand.Rand, c *MeasureColumn, n int) []uint32 {
	seen := make(map[uint32]bool)
	var recs []uint32
	add := func(rec uint32) {
		if !seen[rec] {
			seen[rec] = true
			recs = append(recs, rec)
		}
	}
	c.ForEach(func(rec uint32, _ float64) bool {
		if rng.Intn(3) == 0 && len(recs) < n {
			add(rec)
		}
		return true
	})
	for len(recs) < n {
		add(uint32(rng.Intn(5 << 16)))
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j-1] > recs[j]; j-- {
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
	return recs
}

func checkGather(t *testing.T, c *MeasureColumn, recs []uint32, label string) {
	t.Helper()
	// Dirty buffers: GatherInto must overwrite every slot.
	values := make([]float64, len(recs))
	present := make([]bool, len(recs))
	for i := range values {
		values[i] = math.Inf(-1)
		present[i] = true
	}
	n := c.GatherInto(recs, values, present)
	wantN := 0
	for i, rec := range recs {
		wantV, wantP := c.Get(rec)
		if wantP {
			wantN++
		}
		if present[i] != wantP || math.Float64bits(values[i]) != math.Float64bits(wantV) {
			t.Fatalf("%s: rec %d: GatherInto (%v, %v), Get (%v, %v)",
				label, rec, values[i], present[i], wantV, wantP)
		}
	}
	if n != wantN {
		t.Fatalf("%s: GatherInto returned %d present, want %d", label, n, wantN)
	}
	// ValuesFor is a wrapper and must agree.
	vv, pp := c.ValuesFor(recs)
	for i := range recs {
		if pp[i] != present[i] || math.Float64bits(vv[i]) != math.Float64bits(values[i]) {
			t.Fatalf("%s: ValuesFor diverges from GatherInto at %d", label, i)
		}
	}
}

func TestGatherIntoMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		c := randomColumn(rng)
		for _, n := range []int{0, 1, 7, 100, 1000} {
			checkGather(t, c, randomRecs(rng, c, n), "random")
		}
	}
}

// TestGatherIntoThresholdBoundary pins both sides of the batch-rank/merge
// cutoff (merge when len(recs)*5 >= Count()*4) to the same answers.
func TestGatherIntoThresholdBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := NewMeasureColumn()
	for i := 0; i < 16*64; i++ { // Count = 1024, cutoff near len(recs) == 820
		c.Set(uint32(i*3), rng.Float64())
	}
	cut := c.Count() * 4 / 5
	if mergeGather(cut-1, c.Count()) || !mergeGather(cut+1, c.Count()) {
		t.Fatalf("cutoff moved: mergeGather around %d of %d", cut, c.Count())
	}
	for _, n := range []int{cut - 1, cut, cut + 1} {
		checkGather(t, c, randomRecs(rng, c, n), "boundary")
	}
}

func TestGatherIntoEmptyColumn(t *testing.T) {
	c := NewMeasureColumn()
	recs := []uint32{1, 5, 70000}
	values := make([]float64, len(recs))
	present := []bool{true, true, true}
	if n := c.GatherInto(recs, values, present); n != 0 {
		t.Fatalf("empty column gathered %d values", n)
	}
	for i := range recs {
		if present[i] || values[i] != 0 {
			t.Fatalf("empty column: slot %d not cleared", i)
		}
	}
}

func TestAggregateIntoMatchesScalarFold(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	funcs := []agg.Func{agg.Sum, agg.Min, agg.Max, agg.Count}
	for trial := 0; trial < 40; trial++ {
		c := randomColumn(rng)
		for _, n := range []int{0, 1, 50, 400, 2000} {
			recs := randomRecs(rng, c, n)
			for _, f := range funcs {
				k := agg.KernelFor(f)
				got, gotN := c.AggregateInto(recs, f.Identity, k.Reduce)
				want := f.Identity
				wantN := 0
				for _, rec := range recs {
					if v, ok := c.Get(rec); ok {
						want = f.Fold(want, f.Lift(v))
						wantN++
					}
				}
				if gotN != wantN {
					t.Fatalf("%s n=%d: AggregateInto scanned %d, scalar %d", f.Name, n, gotN, wantN)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: AggregateInto = %v (bits %x), scalar %v (bits %x)",
						f.Name, n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestAggregateIntoBlockSplit forces multi-block reduction (>BlockSize
// matches) on both the sparse and merge paths.
func TestAggregateIntoBlockSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c := NewMeasureColumn()
	for i := 0; i < 20000; i++ {
		c.Set(uint32(i*2), rng.Float64())
	}
	k := agg.KernelFor(agg.Sum)
	// Merge path: nearly the whole column.
	dense := randomRecs(rng, c, 15000)
	// Sparse path: well under Count()/16 but over BlockSize.
	sparse := randomRecs(rng, c, 700)
	for _, recs := range [][]uint32{dense, sparse} {
		got, gotN := c.AggregateInto(recs, 0, k.Reduce)
		want := 0.0
		wantN := 0
		for _, rec := range recs {
			if v, ok := c.Get(rec); ok {
				want += v
				wantN++
			}
		}
		if gotN != wantN || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("len(recs)=%d: AggregateInto = (%v, %d), scalar (%v, %d)",
				len(recs), got, gotN, want, wantN)
		}
	}
}

// TestPagedKernelsBalancePins runs every reader of a paged column — the
// gather and fold kernels on both their paths, the zone-skipping scan,
// ForEach stopped early, point Gets — against a pool too small to keep a
// block, so each of them faults and moves its window across blocks. Each must
// answer as the resident column does, bit for bit, and leave no block pinned:
// a pin that outlives its kernel is a block the pool can never evict.
func TestPagedKernelsBalancePins(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	r := NewRelation(0)
	for i := 0; i < 3*BlockValues/2+BlockValues; i++ {
		rec := r.NewRecord()
		if i%7 != 3 { // holes, so ranks and record ids differ
			r.SetEdgeMeasure(rec, 1, (rng.Float64()-0.5)*1e3)
		}
	}
	mem := r.MeasureColumn(1)
	loaded := reloadPaged(t, r, 1)
	col := loaded.MeasureColumn(1)
	balanced := func(kernel string) {
		t.Helper()
		if n := pinnedBlocks(loaded); n != 0 {
			t.Fatalf("%d blocks left pinned after %s", n, kernel)
		}
	}
	sum := agg.KernelFor(agg.Sum)
	for _, n := range []int{1, 300, 2 * BlockValues} { // batch-rank path, then the merge path
		recs := randomRecs(rng, mem, n)
		want, wantP := mem.ValuesFor(recs)
		got, gotP := col.ValuesFor(recs)
		balanced("GatherInto")
		for i := range recs {
			if gotP[i] != wantP[i] || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d rec %d: paged (%v, %v), resident (%v, %v)", n, recs[i], got[i], gotP[i], want[i], wantP[i])
			}
		}
		wantAcc, wantN := mem.AggregateInto(recs, 0, sum.Reduce)
		gotAcc, gotN := col.AggregateInto(recs, 0, sum.Reduce)
		balanced("AggregateInto")
		if gotN != wantN || math.Float64bits(gotAcc) != math.Float64bits(wantAcc) {
			t.Fatalf("n=%d: paged AggregateInto (%v, %d), resident (%v, %d)", n, gotAcc, gotN, wantAcc, wantN)
		}
		wantMin, wantF, _, _ := mem.AggregateSkip(recs, math.Inf(1), true)
		gotMin, gotF, _, _ := col.AggregateSkip(recs, math.Inf(1), true)
		balanced("AggregateSkip")
		if math.Float64bits(gotMin) != math.Float64bits(wantMin) || gotF > wantF {
			t.Fatalf("n=%d: paged AggregateSkip (%v, %d folded), resident (%v, %d)", n, gotMin, gotF, wantMin, wantF)
		}
	}
	seen := 0
	col.ForEach(func(rec uint32, v float64) bool {
		if want, _ := mem.Get(rec); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("ForEach rec %d = %v, resident %v", rec, v, want)
		}
		seen++
		return seen < BlockValues+10 // stop inside the second block, its frame pinned
	})
	balanced("an early-stopped ForEach")
	for _, rec := range []uint32{0, BlockValues + 5, uint32(r.NumRecords()) - 1} {
		got, ok := col.Get(rec)
		want, wantOK := mem.Get(rec)
		if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Get(%d) = (%v, %v), resident (%v, %v)", rec, got, ok, want, wantOK)
		}
	}
	balanced("Get")
	if err := loaded.PageError(); err != nil {
		t.Fatal(err)
	}
	if s := loaded.PagePoolStats(); s.ResidentBlocks > 1 {
		t.Fatalf("the pool kept %d blocks on a 1-byte budget", s.ResidentBlocks)
	}
}

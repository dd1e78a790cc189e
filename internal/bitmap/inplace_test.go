package bitmap

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// randomBitmap draws n values from [0, max) with the given rng.
func randomBitmap(rng *rand.Rand, n int, max uint32) *Bitmap {
	b := New()
	for i := 0; i < n; i++ {
		b.Add(rng.Uint32() % max)
	}
	return b
}

// layoutVariants returns semantically equal bitmaps in all three container
// layouts (array, bitset, run) plus the original, so in-place kernels are
// exercised across every receiver/operand pairing.
func layoutVariants(b *Bitmap) []*Bitmap {
	run := b.Clone()
	run.Optimize()
	dense := New()
	b.Each(func(v uint32) bool {
		dense.Add(v)
		return true
	})
	return []*Bitmap{b, run, dense}
}

func TestAndInPlaceMatchesAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		n   int
		max uint32
	}{
		{0, 1 << 16}, {50, 1 << 10}, {5000, 1 << 14}, {8000, 1 << 16},
		{3000, 1 << 20}, {60000, 1 << 17},
	}
	for _, sa := range shapes {
		for _, sb := range shapes {
			a := randomBitmap(rng, sa.n, sa.max)
			b := randomBitmap(rng, sb.n, sb.max)
			want := a.And(b)
			for _, other := range layoutVariants(b) {
				got := a.Clone()
				got.AndInPlace(other)
				if !got.Equals(want) {
					t.Fatalf("AndInPlace(%d/%d vs %d/%d) = card %d, want %d",
						sa.n, sa.max, sb.n, sb.max, got.Cardinality(), want.Cardinality())
				}
			}
		}
	}
}

func TestAndInPlaceRunOperands(t *testing.T) {
	// Range-built bitmaps exercise the run-container masks directly.
	a := FromRange(100, 70000)
	a.AddRange(200000, 200100)
	b := FromRange(60000, 250000)
	want := a.And(b)
	for _, x := range layoutVariants(a) {
		for _, y := range layoutVariants(b) {
			got := x.Clone()
			got.AndInPlace(y)
			if !got.Equals(want) {
				t.Fatalf("run AndInPlace mismatch: card %d want %d",
					got.Cardinality(), want.Cardinality())
			}
		}
	}
}

func TestAndAllIntoMatchesAndAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		width := 1 + rng.Intn(8)
		bms := make([]*Bitmap, width)
		for i := range bms {
			bms[i] = randomBitmap(rng, 200+rng.Intn(5000), 1<<15)
		}
		want := AndAll(bms...)
		dst := AndAllInto(New(), append([]*Bitmap(nil), bms...)...)
		if !dst.Equals(want) {
			t.Fatalf("trial %d: AndAllInto card %d, want %d",
				trial, dst.Cardinality(), want.Cardinality())
		}
	}
}

func TestAndAllIntoReuseAndOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomBitmap(rng, 4000, 1<<14)
	b := randomBitmap(rng, 4000, 1<<14)
	c := randomBitmap(rng, 4000, 1<<14)

	dst := New()
	first := AndAllInto(dst, a, b)
	if first != dst {
		t.Fatal("AndAllInto did not return dst")
	}
	snapshot := first.Clone()

	// The result must be detached from the inputs: mutating them afterwards
	// must not change the accumulated answer (cache-retention contract).
	a.AddRange(0, 1<<14)
	if !first.Equals(snapshot) {
		t.Fatal("result aliases an input bitmap")
	}

	// Reusing the same dst for another conjunction overwrites it fully.
	second := AndAllInto(dst, b, c)
	want := b.And(c)
	if !second.Equals(want) {
		t.Fatalf("reused dst: card %d, want %d", second.Cardinality(), want.Cardinality())
	}
}

func TestAndAllIntoEdgeCases(t *testing.T) {
	if got := AndAllInto(nil); !got.IsEmpty() {
		t.Fatal("empty conjunction not empty")
	}
	a := FromSlice([]uint32{1, 5, 9})
	single := AndAllInto(New(), a)
	if !single.Equals(a) {
		t.Fatal("single-operand conjunction differs")
	}
	a.Add(100)
	if single.Contains(100) {
		t.Fatal("single-operand result aliases the input")
	}
	empty := AndAllInto(New(), a, New(), FromRange(0, 1000))
	if !empty.IsEmpty() {
		t.Fatal("conjunction with empty operand not empty")
	}
}

func TestClearAndCopyFrom(t *testing.T) {
	b := FromRange(0, 100000)
	b.Clear()
	if !b.IsEmpty() || b.Cardinality() != 0 {
		t.Fatal("Clear left values behind")
	}
	src := FromSlice([]uint32{3, 70000, 1 << 20})
	b.CopyFrom(src)
	if !b.Equals(src) {
		t.Fatal("CopyFrom mismatch")
	}
	src.Add(42)
	if b.Contains(42) {
		t.Fatal("CopyFrom aliases the source")
	}
}

// TestAndAllIntoConstantBitmapAllocs pins the O(1)-bitmaps contract: the
// number of allocations per conjunction must not grow with the plan width
// (it would be ~width bitmaps plus containers with the allocating path).
func TestAndAllIntoConstantBitmapAllocs(t *testing.T) {
	mk := func(width int) []*Bitmap {
		rng := rand.New(rand.NewSource(17))
		bms := make([]*Bitmap, width)
		for i := range bms {
			// Dense over a single chunk: the accumulator stays one container.
			bms[i] = randomBitmap(rng, 30000, 1<<16)
		}
		return bms
	}
	allocsAt := func(width int) float64 {
		bms := mk(width)
		dst := New()
		return testing.AllocsPerRun(20, func() {
			AndAllInto(dst, bms...)
		})
	}
	narrow, wide := allocsAt(4), allocsAt(32)
	// Allow slack for container layout conversions, but a linear-in-width
	// regime (≥1 alloc per operand) must fail.
	if wide > narrow+8 {
		t.Fatalf("allocations grow with plan width: %v at width 4 vs %v at width 32",
			narrow, wide)
	}
}

// TestAndAllIntoArrayColumnsAllocs pins the match path's allocation budget:
// over 16 array columns — the layout of a sparse edge column — a conjunction
// into a reused accumulator allocates only its result container (the
// container and its one value slice). Ordering the operands, the galloping
// and merging steps and the in-place steps after the first allocate nothing.
func TestAndAllIntoArrayColumnsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	bms := make([]*Bitmap, 16)
	for i := range bms {
		bms[i] = randomBitmap(rng, 200+rng.Intn(3000), 1<<16)
		bms[i].Add(12345) // a non-empty answer, so every step runs
		if _, ok := bms[i].containers[0].(*arrayContainer); !ok {
			t.Fatalf("column %d is a %T, the fixture wants arrays", i, bms[i].containers[0])
		}
	}
	dst := New()
	allocs := testing.AllocsPerRun(50, func() { AndAllInto(dst, bms...) })
	if allocs > 2 {
		t.Fatalf("AndAllInto over 16 array columns allocates %.1f times per call, want 2 (one array container)", allocs)
	}
	if want := AndAll(bms...); dst.IsEmpty() || !dst.Equals(want) {
		t.Fatalf("AndAllInto holds %d ids, AndAll %d", dst.Cardinality(), want.Cardinality())
	}
}

// TestInPlaceProbeAllocs pins the in-place array ∩ array step at zero
// allocations at 10, 33 and 90 % overlap: the kernel writes into its
// accumulator, and AndInPlace's probe scratch stays on the stack.
func TestInPlaceProbeAllocs(t *testing.T) {
	for _, share := range []float64{0.1, 0.33, 0.9} {
		short, long := overlapLows(rand.New(rand.NewSource(61)), 500, 600, share, 10000)
		var seen probeSet
		acc := make([]uint16, len(short))
		if allocs := testing.AllocsPerRun(50, func() {
			copy(acc, short)
			intersectInto(acc, acc, long, &seen)
		}); allocs != 0 {
			t.Errorf("%.0f %% overlap: intersectInto allocates %.1f times per call, want 0", 100*share, allocs)
		}
		col := &Bitmap{keys: []uint16{0}, containers: []container{&arrayContainer{values: long}}}
		work := &Bitmap{keys: []uint16{0}, containers: []container{&arrayContainer{}}}
		if allocs := testing.AllocsPerRun(50, func() {
			d := work.containers[0].(*arrayContainer)
			d.values = append(d.values[:0], short...)
			work.keys, work.containers = work.keys[:1], work.containers[:1]
			work.AndInPlace(col)
		}); allocs != 0 {
			t.Errorf("%.0f %% overlap: AndInPlace allocates %.1f times per call, want 0", 100*share, allocs)
		}
	}
}

// --- benchmarks -------------------------------------------------------------

func benchOperands(width int) []*Bitmap {
	rng := rand.New(rand.NewSource(23))
	bms := make([]*Bitmap, width)
	for i := range bms {
		bms[i] = randomBitmap(rng, 40000, 1<<18)
	}
	return bms
}

func BenchmarkAndAllWidth16(b *testing.B) {
	bms := benchOperands(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndAll(bms...)
	}
}

func BenchmarkAndAllIntoWidth16(b *testing.B) {
	bms := benchOperands(16)
	dst := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndAllInto(dst, bms...)
	}
}

// TestSortByCardinalityStable holds the operand order to a stable sort by
// cardinality on random widths 0–40 with many ties, across the stack
// insertion (≤ sortScratch) and the wide path, and pins the insertion at
// zero allocations at full width.
func TestSortByCardinalityStable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pool := make([]*Bitmap, 8)
	for i := range pool {
		pool[i] = randomBitmap(rng, 5*rng.Intn(4), 1<<16) // cardinalities repeat
	}
	for trial := 0; trial < 2000; trial++ {
		width := rng.Intn(41)
		got := make([]*Bitmap, width)
		for i := range got {
			got[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				got[i] = got[i].Clone() // equal cardinality, distinct operand
			}
		}
		want := slices.Clone(got)
		slices.SortStableFunc(want, func(x, y *Bitmap) int { return cmp.Compare(x.Cardinality(), y.Cardinality()) })
		sortByCardinality(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width %d: position %d holds a different operand (cardinality %d, want %d)",
					width, i, got[i].Cardinality(), want[i].Cardinality())
			}
		}
	}
	full := make([]*Bitmap, sortScratch)
	for i := range full {
		full[i] = pool[i%len(pool)]
	}
	if allocs := testing.AllocsPerRun(50, func() { sortByCardinality(full) }); allocs != 0 {
		t.Fatalf("ordering %d operands allocates %.1f times, want 0", sortScratch, allocs)
	}
}

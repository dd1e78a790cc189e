package bitmap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mixedLayoutBitmap builds a bitmap whose chunks exercise all three container
// layouts: sparse arrays, dense bitsets, and long runs.
func mixedLayoutBitmap(rng *rand.Rand) *Bitmap {
	b := New()
	// Chunk 0: sparse array.
	for i := 0; i < rng.Intn(100); i++ {
		b.Add(uint32(rng.Intn(1 << 16)))
	}
	// Chunk 1: dense bitset (over the array→bitset threshold).
	if rng.Intn(2) == 0 {
		for i := 0; i < 5000+rng.Intn(5000); i++ {
			b.Add(1<<16 + uint32(rng.Intn(1<<16)))
		}
	}
	// Chunk 3 (gap at 2): runs.
	if rng.Intn(2) == 0 {
		for i := 0; i < rng.Intn(5); i++ {
			lo := 3<<16 + uint32(rng.Intn(60000))
			b.AddRange(lo, lo+uint32(rng.Intn(3000)))
		}
	}
	b.Optimize()
	return b
}

func TestIteratorNextManyMatchesEach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := mixedLayoutBitmap(rng)
		want := b.ToSlice()
		// Decode with an awkward buffer size so blocks split containers,
		// words and runs at odd boundaries.
		bufSize := 1 + rng.Intn(300)
		buf := make([]uint32, bufSize)
		var got []uint32
		it := b.Iterator()
		for {
			n := it.NextMany(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (buf %d): NextMany yielded %d values, Each %d",
				trial, bufSize, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (buf %d): value %d: NextMany %d, Each %d",
					trial, bufSize, i, got[i], want[i])
			}
		}
		// Exhausted iterators stay exhausted.
		if n := it.NextMany(buf); n != 0 {
			t.Fatalf("trial %d: exhausted iterator produced %d values", trial, n)
		}
	}
}

func TestIteratorEmptyBitmap(t *testing.T) {
	it := New().Iterator()
	if n := it.NextMany(make([]uint32, 8)); n != 0 {
		t.Fatalf("empty bitmap decoded %d values", n)
	}
	var zero Iterator
	if n := zero.NextMany(make([]uint32, 8)); n != 0 {
		t.Fatalf("zero-value iterator decoded %d values", n)
	}
}

func TestAppendIntoMatchesToSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		b := mixedLayoutBitmap(rng)
		want := b.ToSlice()
		// Reuse one buffer across appends to prove capacity recycling works.
		buf := make([]uint32, 0, 4)
		buf = append(buf, 99) // pre-existing content must survive
		got := b.AppendInto(buf)
		if got[0] != 99 {
			t.Fatalf("trial %d: AppendInto clobbered existing prefix", trial)
		}
		got = got[1:]
		if len(got) != len(want) {
			t.Fatalf("trial %d: AppendInto yielded %d values, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: value %d: got %d want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRanksIntoMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	check := func(what string, b *Bitmap, vs []uint32) {
		t.Helper()
		idx := make([]int32, len(vs))
		b.RanksInto(vs, idx)
		for i, v := range vs {
			var want int32 = -1
			if b.Contains(v) {
				want = int32(b.Rank(v) - 1)
			}
			if idx[i] != want {
				t.Fatalf("%s, %d ids: RanksInto(%d) = %d, want %d", what, len(vs), v, idx[i], want)
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		b := mixedLayoutBitmap(rng)
		// Query a mix of present and absent values, sorted ascending, with
		// duplicates and values in empty chunks.
		var vs []uint32
		b.Each(func(v uint32) bool {
			if rng.Intn(3) == 0 {
				vs = append(vs, v)
			}
			return true
		})
		for i := 0; i < 200; i++ {
			vs = append(vs, uint32(rng.Intn(5<<16)))
		}
		sortU32(vs)
		check(fmt.Sprintf("mixed trial %d", trial), b, vs)
	}
	// Every layout of every shape in chunks 0 and 2, probed by batches that
	// gallop an array (few ids) and merge it (many), with ids present,
	// absent, in the gap chunk 1 and in chunk 3 past the last container.
	for si, lows := range lowsShapes(rng) {
		for layout, c := range layoutsOf(lows) {
			b := &Bitmap{keys: []uint16{0, 2}, containers: []container{c, c.clone()}}
			for _, n := range []int{1, 8, 300, 5000} {
				vs := make([]uint32, 0, n)
				for len(vs) < n {
					low := uint16(rng.Intn(1 << 16))
					if rng.Intn(2) == 0 {
						low = lows[rng.Intn(len(lows))]
					}
					vs = append(vs, uint32(rng.Intn(4))<<16|uint32(low))
				}
				slices.Sort(vs)
				check(fmt.Sprintf("shape %d as %s", si, layout), b, vs)
			}
		}
	}
}

func TestRanksIntoEmpty(t *testing.T) {
	b := New()
	vs := []uint32{0, 1, 70000}
	idx := make([]int32, len(vs))
	b.RanksInto(vs, idx)
	for i, x := range idx {
		if x != -1 {
			t.Fatalf("empty bitmap: idx[%d] = %d, want -1", i, x)
		}
	}
	b.RanksInto(nil, nil) // no-op, must not panic
}

func sortU32(vs []uint32) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j-1] > vs[j]; j-- {
			vs[j-1], vs[j] = vs[j], vs[j-1]
		}
	}
}

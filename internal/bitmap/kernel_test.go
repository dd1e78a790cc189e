package bitmap

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// The container-level property suite behind the galloping array ∩ run
// kernel, the cached run cardinality and the sorted bulk build: every layout
// pair of the in-place AND against the allocating one and against a plain
// set intersection, the cache against a recount after every kind of
// mutation, FromSorted against the Add loop it replaces.

// lowsShapes draws low-16-bit value sets that stress different cursor
// patterns: uniform sparse, uniform dense, a few long runs, many short runs,
// and the chunk's two ends.
func lowsShapes(rng *rand.Rand) [][]uint16 {
	uniform := func(n int) []uint16 {
		seen := make(map[uint16]struct{}, n)
		for len(seen) < n {
			seen[uint16(rng.Intn(1<<16))] = struct{}{}
		}
		out := make([]uint16, 0, n)
		for v := range seen {
			out = append(out, v)
		}
		slices.Sort(out)
		return out
	}
	runs := func(count, maxLen int) []uint16 {
		var out []uint16
		v := rng.Intn(64)
		for r := 0; r < count && v < 1<<16; r++ {
			for k, n := 0, 1+rng.Intn(maxLen); k < n && v < 1<<16; k++ {
				out = append(out, uint16(v))
				v++
			}
			v += 2 + rng.Intn(2*(1<<16)/(count+1))
		}
		return out
	}
	return [][]uint16{
		nil,
		{0},
		{65535},
		{0, 65535},
		uniform(3),
		uniform(200),
		uniform(4000),
		uniform(9000),
		uniform(40000),
		runs(3, 20000),
		runs(40, 900),
		runs(600, 8),
		runs(2000, 3),
	}
}

// layoutsOf builds the same value set in every physical layout that can hold
// it (an array only up to arrayMaxCardinality).
func layoutsOf(lows []uint16) map[string]container {
	out := map[string]container{}
	if len(lows) == 0 {
		return out
	}
	if len(lows) <= arrayMaxCardinality {
		out["array"] = &arrayContainer{values: slices.Clone(lows)}
	}
	bs := newBitsetContainer()
	for _, v := range lows {
		bs.set(v)
	}
	out["bitset"] = bs
	var rs []interval16
	for _, v := range lows {
		if n := len(rs); n > 0 && rs[n-1].end()+1 == uint32(v) {
			rs[n-1].length++
		} else {
			rs = append(rs, interval16{start: v})
		}
	}
	out["run"] = newRunContainer(rs)
	return out
}

func containerLows(c container) []uint16 {
	var out []uint16
	if c != nil {
		c.each(func(v uint16) bool {
			out = append(out, v)
			return true
		})
	}
	return out
}

func TestInPlaceKernelsMatchAllocatingAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := lowsShapes(rng)
	for ai, a := range shapes {
		for bi, b := range shapes {
			var want []uint16
			for _, v := range a {
				if _, ok := slices.BinarySearch(b, v); ok {
					want = append(want, v)
				}
			}
			for dl, dst := range layoutsOf(a) {
				for sl, src := range layoutsOf(b) {
					before := containerLows(src)
					if got := containerLows(dst.and(src)); !slices.Equal(got, want) {
						t.Fatalf("shape %d ∩ %d, %s.and(%s): %d values, want %d", ai, bi, dl, sl, len(got), len(want))
					}
					got := andContainerInPlace(dst.clone(), src)
					if lows := containerLows(got); !slices.Equal(lows, want) {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s: %d values, want %d", ai, bi, dl, sl, len(lows), len(want))
					}
					if got != nil && got.cardinality() != len(want) {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s: cardinality() = %d, holds %d", ai, bi, dl, sl, got.cardinality(), len(want))
					}
					if _, isBitset := got.(*bitsetContainer); isBitset && len(want) <= arrayMaxCardinality {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s: %d values left in a bitset", ai, bi, dl, sl, len(want))
					}
					if !slices.Equal(containerLows(src), before) {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s modified its operand", ai, bi, dl, sl)
					}
				}
			}
		}
	}
}

func TestGallopCursors(t *testing.T) {
	a := []uint16{1, 3, 3, 7, 20, 21, 22, 400, 65535}
	for lo := 0; lo <= len(a); lo++ {
		for _, target := range []uint16{0, 1, 2, 3, 4, 7, 8, 22, 23, 400, 401, 65535} {
			want := lo
			for want < len(a) && a[want] < target {
				want++
			}
			if got := gallopValues(a, lo, target); got != want {
				t.Fatalf("gallopValues(lo=%d, target=%d) = %d, want %d", lo, target, got, want)
			}
		}
	}
	runs := []interval16{{0, 0}, {2, 3}, {9, 0}, {11, 100}, {300, 5}, {65000, 535}}
	for lo := 0; lo <= len(runs); lo++ {
		for _, v := range []uint16{0, 1, 5, 6, 9, 10, 111, 112, 305, 306, 64999, 65535} {
			want := lo
			for want < len(runs) && runs[want].end() < uint32(v) {
				want++
			}
			if got := gallopRuns(runs, lo, v); got != want {
				t.Fatalf("gallopRuns(lo=%d, v=%d) = %d, want %d", lo, v, got, want)
			}
		}
	}
}

// TestRunCardinalityCacheStaysExact drives run containers through every
// operation that builds or mutates one and recounts the runs each time.
func TestRunCardinalityCacheStaysExact(t *testing.T) {
	recount := func(where string, c container) {
		t.Helper()
		r, ok := c.(*runContainer)
		if !ok {
			return
		}
		n := 0
		for _, run := range r.runs {
			n += int(run.length) + 1
		}
		if r.card != n {
			t.Fatalf("%s: cached cardinality %d, runs hold %d", where, r.card, n)
		}
	}
	rng := rand.New(rand.NewSource(31))
	c := container(newRunContainer([]interval16{{start: 10, length: 5}, {start: 100, length: 0}}))
	recount("new", c)
	for step := 0; step < 4000; step++ {
		v := uint16(rng.Intn(300))
		if rng.Intn(3) == 0 {
			c, _ = c.remove(v)
		} else {
			c, _ = c.add(v)
		}
		recount("add/remove", c)
		if _, ok := c.(*runContainer); !ok {
			c = newRunContainer([]interval16{{start: v, length: 2}})
		}
	}
	recount("clone", c.clone())
	other := newRunContainer([]interval16{{start: 0, length: 40}, {start: 250, length: 1000}})
	recount("and", c.and(other))
	recount("or", c.or(other))
	recount("or array", c.or(&arrayContainer{values: []uint16{7, 8, 9, 5000}}))

	b := FromRange(5, 70000)
	b.AddRange(65000, 140000)
	b.RemoveRange(100, 200)
	for i, bc := range b.containers {
		recount("range ops", bc)
		if got, want := bc.cardinality(), len(containerLows(bc)); got != want {
			t.Fatalf("chunk %d: cardinality() = %d, holds %d", i, got, want)
		}
	}
	filled := FromSlice([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 500})
	filled.RunOptimize()
	recount("RunOptimize", filled.containers[0])
	var buf bytes.Buffer
	if _, err := filled.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back := New()
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	recount("ReadFrom", back.containers[0])
	if back.Cardinality() != 13 {
		t.Fatalf("round-tripped cardinality = %d", back.Cardinality())
	}
}

func TestFromSortedMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := []int{0, 1, 5, 300, 4096, 4097, 30000}[trial%7]
		span := []uint32{1 << 12, 1 << 16, 1 << 18, 1 << 24}[trial%4]
		seen := make(map[uint32]struct{}, n)
		for len(seen) < n && len(seen) < int(span) {
			seen[rng.Uint32()%span+uint32(trial%3)<<16] = struct{}{}
		}
		values := make([]uint32, 0, len(seen))
		for v := range seen {
			values = append(values, v)
		}
		slices.Sort(values)

		want := New()
		for _, v := range values {
			want.Add(v)
		}
		got := FromSorted(values)
		if !slices.Equal(got.ToSlice(), values) {
			t.Fatalf("trial %d: FromSorted holds %d values, want %d", trial, got.Cardinality(), len(values))
		}
		if len(got.keys) != len(want.keys) {
			t.Fatalf("trial %d: %d chunks, Add builds %d", trial, len(got.keys), len(want.keys))
		}
		for i, c := range got.containers {
			_, gotArray := c.(*arrayContainer)
			_, wantArray := want.containers[i].(*arrayContainer)
			if gotArray != wantArray {
				t.Fatalf("trial %d chunk %d: layout %T, Add reaches %T", trial, i, c, want.containers[i])
			}
		}

		// Array containers share one backing slice: growing one must not
		// write into its neighbour.
		for _, v := range values {
			if v%7 == 0 && v+1 != 0 {
				got.Add(v + 1)
				want.Add(v + 1)
			}
		}
		if !got.Equals(want) {
			t.Fatalf("trial %d: Adds after FromSorted diverge from the Add-built bitmap", trial)
		}
		shuffled := slices.Clone(values)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		shuffled = append(shuffled, shuffled[:len(shuffled)/2]...)
		if fs := FromSlice(shuffled); !slices.Equal(fs.ToSlice(), values) {
			t.Fatalf("trial %d: FromSlice of a shuffled, duplicated input holds %d values, want %d", trial, fs.Cardinality(), len(values))
		}
	}
}

// arrayRunOperands is the shape the sharded batch workload intersects: a
// ≈ 2 000-value array accumulator against a run-optimised dense column of a
// 2 500-record shard.
func arrayRunOperands() (*Bitmap, *Bitmap) {
	rng := rand.New(rand.NewSource(41))
	acc, col := New(), New()
	for v := uint32(0); v < 2500; v++ {
		if rng.Intn(5) != 0 {
			acc.Add(v)
		}
		if rng.Intn(12) != 0 {
			col.Add(v)
		}
	}
	col.RunOptimize()
	return acc, col
}

func TestAndInPlaceArrayRunAllocs(t *testing.T) {
	acc, col := arrayRunOperands()
	if _, ok := col.containers[0].(*runContainer); !ok {
		t.Fatalf("column is a %T, the fixture wants a run container", col.containers[0])
	}
	work := New()
	work.CopyFrom(acc)
	saved := slices.Clone(work.containers[0].(*arrayContainer).values)
	allocs := testing.AllocsPerRun(50, func() {
		d := work.containers[0].(*arrayContainer)
		d.values = d.values[:len(saved)]
		copy(d.values, saved)
		work.AndInPlace(col)
	})
	if allocs != 0 {
		t.Fatalf("array ∩ run in place allocates %.1f times per call, want 0", allocs)
	}
	if want := acc.And(col); !work.Equals(want) {
		t.Fatalf("in place = %d values, And = %d", work.Cardinality(), want.Cardinality())
	}
}

// BenchmarkAndInPlaceArrayRun is the bench-smoke probe of the galloping
// array ∩ run kernel (make bench-smoke).
func BenchmarkAndInPlaceArrayRun(b *testing.B) {
	acc, col := arrayRunOperands()
	work := New()
	work.CopyFrom(acc)
	saved := slices.Clone(work.containers[0].(*arrayContainer).values)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := work.containers[0].(*arrayContainer)
		d.values = d.values[:len(saved)]
		copy(d.values, saved)
		work.AndInPlace(col)
	}
}

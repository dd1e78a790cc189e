package bitmap

import (
	"bytes"
	"fmt"
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
	uniform := func(n int) []uint16 { return uniformLows(rng, n, 1<<16) }
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

// uniformLows draws n distinct values uniformly from [0, span), sorted.
func uniformLows(rng *rand.Rand, n, span int) []uint16 {
	seen := make(map[uint16]struct{}, n)
	for len(seen) < n {
		seen[uint16(rng.Intn(span))] = struct{}{}
	}
	out := make([]uint16, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
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
	bs := newBitsetContainer(1)
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

// foldLows wraps lows into the range of a bitset of the given number of
// words and adds the range's last value, so that the bitset layout of the
// result has exactly that many words.
func foldLows(lows []uint16, words int) []uint16 {
	top := 64*words - 1
	out := []uint16{uint16(top)}
	for _, v := range lows {
		out = append(out, uint16(int(v)%(top+1)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// checkKernels checks and, or, andNot and the in-place AND of the sorted
// sets x and y, in every pair of their layouts, against a map, and that the
// allocating kernels leave their operands as they were.
func checkKernels(t *testing.T, x, y []uint16) {
	t.Helper()
	inY := make(map[uint16]bool, len(y))
	for _, v := range y {
		inY[v] = true
	}
	var and, andNot []uint16
	for _, v := range x {
		if inY[v] {
			and = append(and, v)
		} else {
			andNot = append(andNot, v)
		}
	}
	or := append(slices.Clone(x), y...)
	slices.Sort(or)
	or = slices.Compact(or)
	var seen probeSet
	for xl, xc := range layoutsOf(x) {
		for yl, yc := range layoutsOf(y) {
			for _, k := range []struct {
				op   string
				got  container
				want []uint16
			}{
				{"and", xc.and(yc), and},
				{"or", xc.or(yc), or},
				{"andNot", xc.andNot(yc), andNot},
				{"in-place and", andContainerInPlace(xc.clone(), yc, &seen), and},
			} {
				what := fmt.Sprintf("%d-value %s %s %d-value %s", len(x), xl, k.op, len(y), yl)
				if got := containerLows(k.got); !slices.Equal(got, k.want) || k.got != nil && k.got.cardinality() != len(k.want) {
					t.Fatalf("%s: %d values, want %d", what, len(got), len(k.want))
				}
				checkAddPast(t, what, k.got, k.want)
			}
			if !slices.Equal(containerLows(xc), x) || !slices.Equal(containerLows(yc), y) {
				t.Fatalf("%d-value %s with %d-value %s: an operand changed", len(x), xl, len(y), yl)
			}
		}
	}
}

// checkAddPast adds the chunk's last value to c, a kernel's result holding
// want: a bitset result grows past its last word there, and must find only
// zeros in the words it takes back into use.
func checkAddPast(t *testing.T, what string, c container, want []uint16) {
	t.Helper()
	if c == nil {
		return
	}
	c, _ = c.add(65535)
	want = slices.Compact(append(slices.Clone(want), 65535))
	if got := containerLows(c); !slices.Equal(got, want) {
		t.Fatalf("%s, then add(65535): %d values, want %d", what, len(got), len(want))
	}
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
			var seen probeSet
			for dl, dst := range layoutsOf(a) {
				for sl, src := range layoutsOf(b) {
					before := containerLows(src)
					if got := containerLows(dst.and(src)); !slices.Equal(got, want) {
						t.Fatalf("shape %d ∩ %d, %s.and(%s): %d values, want %d", ai, bi, dl, sl, len(got), len(want))
					}
					got := andContainerInPlace(dst.clone(), src, &seen)
					if lows := containerLows(got); !slices.Equal(lows, want) {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s: %d values, want %d", ai, bi, dl, sl, len(lows), len(want))
					}
					if got != nil && got.cardinality() != len(want) {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s: cardinality() = %d, holds %d", ai, bi, dl, sl, got.cardinality(), len(want))
					}
					if _, isBitset := got.(*bitsetContainer); isBitset && len(want) <= arrayMaxCardinality {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s: %d values left in a bitset", ai, bi, dl, sl, len(want))
					}
					checkAddPast(t, fmt.Sprintf("shape %d ∩ %d, in-place %s ∩ %s", ai, bi, dl, sl), got, want)
					if !slices.Equal(containerLows(src), before) {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s modified its operand", ai, bi, dl, sl)
					}
					if seen != (probeSet{}) {
						t.Fatalf("shape %d ∩ %d, in-place %s ∩ %s left probe bits set", ai, bi, dl, sl)
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

// TestIntersectArraysAroundGallopRatio runs array ∩ array on both sides of
// the probe-or-gallop rule — length ratios T−1, T, T+1, 64 and 1 000 around
// T = gallopRatio, and empty and one-value operands — through the allocating
// kernel, the in-place kernel with either operand as the accumulator, and
// the bitmap-level And, AndInPlace and AndAllInto over ids in three chunks.
func TestIntersectArraysAroundGallopRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type pair struct{ short, long int }
	pairs := []pair{{0, 0}, {0, 1}, {1, 1}, {0, 100}, {1, 4000}}
	for _, ratio := range []int{1, gallopRatio - 1, gallopRatio, gallopRatio + 1, 64, 1000} {
		for _, short := range []int{1, 3, 40, 500} {
			if short*ratio <= arrayMaxCardinality {
				pairs = append(pairs, pair{short, short * ratio})
			}
		}
	}
	intersect := func(a, b []uint16) []uint16 {
		var out []uint16
		for _, v := range a {
			if _, ok := slices.BinarySearch(b, v); ok {
				out = append(out, v)
			}
		}
		return out
	}
	for _, p := range pairs {
		span := max(4*p.long, 64)
		long := uniformLows(rng, p.long, span)
		// Half of short comes from long, so every ratio has matches to find.
		short := uniformLows(rng, p.short-p.short/2, span)
		for _, k := range rng.Perm(len(long))[:min(p.short/2, len(long))] {
			short = append(short, long[k])
		}
		slices.Sort(short)
		short = slices.Compact(short)
		want := intersect(short, long)
		var seen probeSet
		for _, ops := range [][2][]uint16{{short, long}, {long, short}} {
			a, b := ops[0], ops[1]
			if got := containerLows((&arrayContainer{values: a}).andArray(&arrayContainer{values: b}, &seen)); !slices.Equal(got, want) {
				t.Fatalf("%d ∩ %d values: andArray finds %d, want %d", len(a), len(b), len(got), len(want))
			}
			acc := slices.Clone(a)
			if got := intersectInto(acc, acc, b, &seen); !slices.Equal(got, want) {
				t.Fatalf("%d ∩ %d values: in-place intersectInto finds %d, want %d", len(a), len(b), len(got), len(want))
			}
		}
		if seen != (probeSet{}) {
			t.Fatalf("%d ∩ %d values leave probe bits set", len(short), len(long))
		}

		// The same operands as array containers of chunks {0, 1, 3} and
		// {1, 2, 3}: chunks 1 and 3 meet, 0 and 2 have no partner.
		var xs, ys, wantIDs []uint32
		for _, key := range []uint32{0, 1, 2, 3} {
			if key != 2 {
				for _, v := range short {
					xs = append(xs, key<<16|uint32(v))
				}
			}
			if key != 0 {
				for _, v := range long {
					ys = append(ys, key<<16|uint32(v))
				}
			}
			if key == 1 || key == 3 {
				for _, v := range want {
					wantIDs = append(wantIDs, key<<16|uint32(v))
				}
			}
		}
		x, y := FromSorted(xs), FromSorted(ys)
		check := func(what string, got *Bitmap) {
			t.Helper()
			if !slices.Equal(got.ToSlice(), wantIDs) {
				t.Fatalf("%d ∩ %d values a chunk: %s holds %d ids, want %d", len(short), len(long), what, got.Cardinality(), len(wantIDs))
			}
		}
		check("And", x.And(y))
		check("And (swapped)", y.And(x))
		inPlace := x.Clone()
		inPlace.AndInPlace(y)
		check("AndInPlace", inPlace)
		inPlace = y.Clone()
		inPlace.AndInPlace(x)
		check("AndInPlace (swapped)", inPlace)
		check("AndAllInto", AndAllInto(New(), x, y, y.Clone()))
		if !slices.Equal(x.ToSlice(), xs) || !slices.Equal(y.ToSlice(), ys) {
			t.Fatalf("%d ∩ %d values: an operand changed", len(short), len(long))
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
	b = b.AndNot(FromRange(100, 200))
	for i, bc := range b.containers {
		recount("range ops", bc)
		if got, want := bc.cardinality(), len(containerLows(bc)); got != want {
			t.Fatalf("chunk %d: cardinality() = %d, holds %d", i, got, want)
		}
	}
	filled := FromSlice([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 500})
	filled.Optimize()
	recount("Optimize", filled.containers[0])
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

// shardOperands is the shape the sharded batch workload intersects: a
// ≈ 2 000-value array accumulator against an optimised column of the same
// 2 500-record shard, in the two layouts such a column takes. "run" is a
// run-shaped column — stretches of 20 to 80 records apart by 1 to 3 — which
// Optimize keeps as runs; "bitset" is a dense one, 11 of every 12 records
// at random, which Optimize makes a 40-word range-sized bitset.
func shardOperands() (acc *Bitmap, cols map[string]*Bitmap) {
	rng := rand.New(rand.NewSource(41))
	acc, run, dense := New(), New(), New()
	for v := uint32(0); v < 2500; v++ {
		if rng.Intn(5) != 0 {
			acc.Add(v)
		}
		if rng.Intn(12) != 0 {
			dense.Add(v)
		}
	}
	for v := uint32(0); v < 2500; v += uint32(1 + rng.Intn(3)) {
		end := min(v+uint32(20+rng.Intn(61)), 2500)
		run.AddRange(v, end)
		v = end
	}
	run.Optimize()
	dense.Optimize()
	return acc, map[string]*Bitmap{"run": run, "bitset": dense}
}

func TestAndInPlaceArrayRunAllocs(t *testing.T) {
	acc, cols := shardOperands()
	if c, ok := cols["run"].containers[0].(*runContainer); !ok {
		t.Fatalf("run column is a %T, the fixture wants a run container", cols["run"].containers[0])
	} else if len(c.runs) < 20 {
		t.Fatalf("run column holds %d runs, the fixture wants dozens", len(c.runs))
	}
	if c, ok := cols["bitset"].containers[0].(*bitsetContainer); !ok || len(c.words) != 40 {
		t.Fatalf("dense column is a %T, the fixture wants a 40-word bitset", cols["bitset"].containers[0])
	}
	for layout, col := range cols {
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
			t.Fatalf("array ∩ %s in place allocates %.1f times per call, want 0", layout, allocs)
		}
		if want := acc.And(col); !work.Equals(want) {
			t.Fatalf("array ∩ %s: in place = %d values, And = %d", layout, work.Cardinality(), want.Cardinality())
		}
	}
}

// BenchmarkAndInPlaceArrayRun is the bench-smoke probe of the in-place
// array ∩ column kernels of a sharded query (make bench-smoke): the
// galloping array ∩ run one, and array ∩ range-sized bitset.
func BenchmarkAndInPlaceArrayRun(b *testing.B) {
	acc, cols := shardOperands()
	for _, layout := range []string{"run", "bitset"} {
		b.Run(layout, func(b *testing.B) {
			work := New()
			work.CopyFrom(acc)
			saved := slices.Clone(work.containers[0].(*arrayContainer).values)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := work.containers[0].(*arrayContainer)
				d.values = d.values[:len(saved)]
				copy(d.values, saved)
				work.AndInPlace(cols[layout])
			}
		})
	}
}

var (
	sinkLows      []uint16
	sinkIdx       []int32
	sinkContainer container
)

// overlapLows returns a short and a long sorted operand in span values, with
// share of short's values also in long.
func overlapLows(rng *rand.Rand, short, long int, share float64, span int) ([]uint16, []uint16) {
	l := uniformLows(rng, long, span)
	in := int(share * float64(short))
	s := make([]uint16, 0, short)
	for _, k := range rng.Perm(len(l))[:in] {
		s = append(s, l[k])
	}
	for _, v := range rng.Perm(span) {
		if len(s) == short {
			break
		}
		if _, found := slices.BinarySearch(l, uint16(v)); !found {
			s = append(s, uint16(v))
		}
	}
	slices.Sort(s)
	return s, l
}

// BenchmarkIntersectArrays prices array ∩ array in the regimes a multi-way
// AND runs (make bench-smoke). match is the first step of a match-uniform
// query: its two smallest columns, ≈ 500 and 600 of a 10 000-record chunk,
// sharing 30 % of the shorter; overlap90 is the comparable complement regime
// where a branchy merge predicts well. inplace is the kernel of every step
// after the first, alloc that of the first. skewN/{probe,gallop} runs each
// arm of intersectInto on a 1 000-value column against one N times shorter:
// gallopRatio is where gallop overtakes probe. Every case cycles through 64
// operand pairs: on one repeated pair the branch predictor learns the
// branchy kernels' outcomes and prices them far below a real query's.
func BenchmarkIntersectArrays(b *testing.B) {
	type pair struct{ short, long []uint16 }
	pairs := func(short, long int, share float64) []pair {
		rng := rand.New(rand.NewSource(53))
		out := make([]pair, 64)
		for i := range out {
			out[i].short, out[i].long = overlapLows(rng, short, long, share, 10000)
		}
		return out
	}
	for _, bc := range []struct {
		name  string
		share float64
	}{{"match", 0.3}, {"overlap90", 0.9}} {
		ps := pairs(500, 600, bc.share)
		b.Run(bc.name+"/inplace", func(b *testing.B) {
			var seen probeSet
			acc := make([]uint16, 500)
			for i := 0; i < b.N; i++ {
				p := ps[i%len(ps)]
				copy(acc, p.short)
				sinkLows = intersectInto(acc, acc, p.long, &seen)
			}
		})
		b.Run(bc.name+"/alloc", func(b *testing.B) {
			cs := make([][2]*arrayContainer, len(ps))
			for i, p := range ps {
				cs[i] = [2]*arrayContainer{{values: p.short}, {values: p.long}}
			}
			var seen probeSet
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := cs[i%len(cs)]
				sinkContainer = c[0].andArray(c[1], &seen)
			}
		})
	}
	for _, skew := range []int{4, 8, 16, 24, 32} {
		ps := pairs(1000/skew, 1000, 0.3)
		dst := make([]uint16, 1000/skew)
		b.Run(fmt.Sprintf("skew%d/probe", skew), func(b *testing.B) {
			var seen probeSet
			for i := 0; i < b.N; i++ {
				p := ps[i%len(ps)]
				sinkLows = dst[:probeIntersect(dst, p.short, p.long, &seen)]
			}
		})
		b.Run(fmt.Sprintf("skew%d/gallop", skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := ps[i%len(ps)]
				sinkLows = dst[:gallopIntersect(dst, p.short, p.long)]
			}
		})
	}
}

// BenchmarkRanksInto prices the batch rank of a 64-id answer, half of it in
// the column, against one column in each layout (make bench-smoke): array is
// a sparse edge column (1 000 of 10 000 records), bitset a dense one (6 000),
// run a near-full one (10 000 minus every 97th record).
func BenchmarkRanksInto(b *testing.B) {
	rng := rand.New(rand.NewSource(59))
	var full []uint16
	for v := 0; v < 10000; v++ {
		if v%97 != 0 {
			full = append(full, uint16(v))
		}
	}
	for _, bc := range []struct {
		layout string
		lows   []uint16
	}{{"array", uniformLows(rng, 1000, 10000)}, {"bitset", uniformLows(rng, 6000, 10000)}, {"run", full}} {
		col := &Bitmap{keys: []uint16{0}, containers: []container{layoutsOf(bc.lows)[bc.layout]}}
		ids := uniformLows(rng, 32, 10000)
		for _, k := range rng.Perm(len(bc.lows))[:32] {
			ids = append(ids, bc.lows[k])
		}
		slices.Sort(ids)
		vs := make([]uint32, 0, len(ids))
		for _, v := range slices.Compact(ids) {
			vs = append(vs, uint32(v))
		}
		idx := make([]int32, len(vs))
		b.Run(bc.layout, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col.RanksInto(vs, idx)
			}
			sinkIdx = idx
		})
	}
}

package bitmap

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyBitmap(t *testing.T) {
	b := New()
	if !b.IsEmpty() {
		t.Fatal("new bitmap not empty")
	}
	if b.Cardinality() != 0 {
		t.Fatalf("cardinality = %d, want 0", b.Cardinality())
	}
	if b.Contains(0) || b.Contains(1<<31) {
		t.Fatal("empty bitmap contains values")
	}
	if _, ok := b.Maximum(); ok {
		t.Fatal("Maximum on empty reported ok")
	}
}

func TestAddContainsRemove(t *testing.T) {
	b := New()
	values := []uint32{0, 1, 5, 65535, 65536, 65537, 1 << 20, 1<<32 - 1}
	for _, v := range values {
		if !b.Add(v) {
			t.Errorf("Add(%d) reported already-present", v)
		}
		if b.Add(v) {
			t.Errorf("second Add(%d) reported newly-added", v)
		}
	}
	for _, v := range values {
		if !b.Contains(v) {
			t.Errorf("Contains(%d) = false after Add", v)
		}
	}
	if b.Cardinality() != len(values) {
		t.Fatalf("cardinality = %d, want %d", b.Cardinality(), len(values))
	}
	if b.Contains(2) {
		t.Error("Contains(2) = true, never added")
	}
	for _, v := range values {
		if !b.Remove(v) {
			t.Errorf("Remove(%d) reported absent", v)
		}
		if b.Remove(v) {
			t.Errorf("second Remove(%d) reported present", v)
		}
	}
	if !b.IsEmpty() {
		t.Fatal("bitmap not empty after removing everything")
	}
}

func TestMinimumMaximum(t *testing.T) {
	b := FromSlice([]uint32{42, 7, 1 << 18, 99999})
	if s := b.ToSlice(); s[0] != 7 {
		t.Errorf("minimum = %d, want 7", s[0])
	}
	if v, ok := b.Maximum(); !ok || v != 1<<18 {
		t.Errorf("Maximum = %d,%v want %d,true", v, ok, 1<<18)
	}
}

// TestMaximumEveryLayout: Maximum reads the last container's own maximum
// (array tail, highest set bitset word, last run end); appending in
// ascending order — the tail fast paths of add and contains — must agree with
// it at every step, across the array → bitset conversion and a chunk border.
func TestMaximumEveryLayout(t *testing.T) {
	b := New()
	for v := uint32(60000); v < 80000; v += 2 {
		if b.Contains(v) || !b.Add(v) || !b.Contains(v) || b.Contains(v+1) || b.Add(v) {
			t.Fatalf("tail append of %d misbehaved", v)
		}
		if got, ok := b.Maximum(); !ok || got != v {
			t.Fatalf("Maximum = %d,%v after adding %d", got, ok, v)
		}
	}
	if _, isBitset := b.containers[1].(*bitsetContainer); !isBitset {
		t.Fatalf("second chunk is %T, want a bitset", b.containers[1])
	}
	if b.Cardinality() != 10000 {
		t.Fatalf("cardinality = %d, want 10000", b.Cardinality())
	}
	r := New()
	r.AddRange(100, 70000)
	r.Optimize()
	if _, isRun := r.containers[1].(*runContainer); !isRun {
		t.Fatalf("second chunk is %T, want runs", r.containers[1])
	}
	if got, _ := r.Maximum(); got != 69999 {
		t.Fatalf("run Maximum = %d, want 69999", got)
	}
}

func TestAddRange(t *testing.T) {
	b := New()
	b.AddRange(10, 20)
	if b.Cardinality() != 10 {
		t.Fatalf("cardinality = %d, want 10", b.Cardinality())
	}
	for v := uint32(10); v < 20; v++ {
		if !b.Contains(v) {
			t.Errorf("missing %d", v)
		}
	}
	if b.Contains(9) || b.Contains(20) {
		t.Error("range endpoints leaked")
	}
}

func TestAddRangeAcrossChunks(t *testing.T) {
	b := New()
	lo, hi := uint32(65000), uint32(131500)
	b.AddRange(lo, hi)
	if got, want := b.Cardinality(), int(hi-lo); got != want {
		t.Fatalf("cardinality = %d, want %d", got, want)
	}
	for _, v := range []uint32{65000, 65535, 65536, 131071, 131072, 131499} {
		if !b.Contains(v) {
			t.Errorf("missing %d", v)
		}
	}
	if b.Contains(64999) || b.Contains(131500) {
		t.Error("range endpoints leaked")
	}
}

func TestAddRangeEmpty(t *testing.T) {
	b := New()
	b.AddRange(10, 10)
	b.AddRange(20, 5)
	if !b.IsEmpty() {
		t.Fatal("empty ranges added values")
	}
}

func TestAddRangeOverExisting(t *testing.T) {
	b := FromSlice([]uint32{5, 15, 25})
	b.AddRange(10, 20)
	want := []uint32{5, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 25}
	if got := b.ToSlice(); !equalU32(got, want) {
		t.Fatalf("ToSlice = %v, want %v", got, want)
	}
}

func TestArrayToBitsetPromotion(t *testing.T) {
	b := New()
	for v := uint32(0); v <= arrayMaxCardinality; v++ {
		b.Add(v * 2) // spaced out so no runs form
	}
	if got, want := b.Cardinality(), arrayMaxCardinality+1; got != want {
		t.Fatalf("cardinality = %d, want %d", got, want)
	}
	if _, ok := b.containers[0].(*bitsetContainer); !ok {
		t.Fatalf("container is %T, want *bitsetContainer", b.containers[0])
	}
	for v := uint32(0); v <= arrayMaxCardinality; v++ {
		if !b.Contains(v * 2) {
			t.Fatalf("missing %d after promotion", v*2)
		}
	}
}

func TestBitsetToArrayDemotion(t *testing.T) {
	b := New()
	for v := uint32(0); v < 5000; v++ {
		b.Add(v * 2)
	}
	for v := uint32(1000); v < 5000; v++ {
		b.Remove(v * 2)
	}
	if _, ok := b.containers[0].(*arrayContainer); !ok {
		t.Fatalf("container is %T, want *arrayContainer after demotion", b.containers[0])
	}
	if b.Cardinality() != 1000 {
		t.Fatalf("cardinality = %d, want 1000", b.Cardinality())
	}
}

func TestAndBasic(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3, 100000, 200000})
	b := FromSlice([]uint32{2, 3, 4, 200000})
	got := a.And(b).ToSlice()
	want := []uint32{2, 3, 200000}
	if !equalU32(got, want) {
		t.Fatalf("And = %v, want %v", got, want)
	}
}

func TestOrBasic(t *testing.T) {
	a := FromSlice([]uint32{1, 3, 100000})
	b := FromSlice([]uint32{2, 3, 200000})
	got := a.Or(b).ToSlice()
	want := []uint32{1, 2, 3, 100000, 200000}
	if !equalU32(got, want) {
		t.Fatalf("Or = %v, want %v", got, want)
	}
}

func TestAndNotBasic(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3, 100000})
	b := FromSlice([]uint32{2, 200000})
	got := a.AndNot(b).ToSlice()
	want := []uint32{1, 3, 100000}
	if !equalU32(got, want) {
		t.Fatalf("AndNot = %v, want %v", got, want)
	}
}

func TestOpsDoNotMutateOperands(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3, 70000})
	b := FromSlice([]uint32{2, 3, 4, 70001})
	aBefore, bBefore := a.ToSlice(), b.ToSlice()
	_ = a.And(b)
	_ = a.Or(b)
	_ = a.AndNot(b)
	if !equalU32(a.ToSlice(), aBefore) {
		t.Error("a mutated by binary ops")
	}
	if !equalU32(b.ToSlice(), bBefore) {
		t.Error("b mutated by binary ops")
	}
}

func TestAndAllOrder(t *testing.T) {
	a := FromRange(0, 1000)
	b := FromRange(500, 1500)
	c := FromRange(900, 2000)
	got := AndAll(a, b, c)
	want := FromRange(900, 1000)
	if !got.Equals(want) {
		t.Fatalf("AndAll = %s, want %s", got, want)
	}
	if AndAll().Cardinality() != 0 {
		t.Error("AndAll() not empty")
	}
	if !AndAll(a).Equals(a) {
		t.Error("AndAll(a) != a")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3})
	c := a.Clone()
	c.Add(4)
	a.Remove(1)
	if !equalU32(c.ToSlice(), []uint32{1, 2, 3, 4}) {
		t.Errorf("clone affected by original: %v", c.ToSlice())
	}
	if !equalU32(a.ToSlice(), []uint32{2, 3}) {
		t.Errorf("original affected by clone: %v", a.ToSlice())
	}
}

func TestEquals(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3})
	b := FromSlice([]uint32{3, 2, 1, 2})
	if !a.Equals(b) {
		t.Error("equal bitmaps reported unequal")
	}
	b.Add(99)
	if a.Equals(b) {
		t.Error("unequal bitmaps reported equal")
	}
}

func TestEachEarlyStop(t *testing.T) {
	b := FromRange(0, 100)
	n := 0
	b.Each(func(v uint32) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("visited %d values, want 10", n)
	}
}

func TestAndCardinality(t *testing.T) {
	a := FromRange(0, 10000)
	b := FromRange(5000, 20000)
	if got := a.And(b).Cardinality(); got != 5000 {
		t.Fatalf("|a ∩ b| = %d, want 5000", got)
	}
	if got := a.And(New()).Cardinality(); got != 0 {
		t.Fatalf("|a ∩ ∅| = %d, want 0", got)
	}
}

func TestRunOptimizeKeepsValues(t *testing.T) {
	b := FromRange(100, 90000)
	b.Add(100000)
	before := b.Cardinality()
	sizeBefore := b.SizeBytes()
	b.Optimize()
	if b.Cardinality() != before {
		t.Fatalf("cardinality changed: %d -> %d", before, b.Cardinality())
	}
	if b.SizeBytes() > sizeBefore {
		t.Errorf("Optimize grew the bitmap: %d -> %d", sizeBefore, b.SizeBytes())
	}
	for _, v := range []uint32{100, 50000, 89999, 100000} {
		if !b.Contains(v) {
			t.Errorf("missing %d after Optimize", v)
		}
	}
	if b.Contains(99) || b.Contains(90000) {
		t.Error("Optimize leaked values")
	}
}

func TestRunContainerSplitOnRemove(t *testing.T) {
	b := FromRange(0, 100)
	b.Optimize()
	if !b.Remove(50) {
		t.Fatal("Remove(50) failed")
	}
	if b.Contains(50) {
		t.Fatal("50 still present")
	}
	if b.Cardinality() != 99 {
		t.Fatalf("cardinality = %d, want 99", b.Cardinality())
	}
	if !b.Contains(49) || !b.Contains(51) {
		t.Fatal("split damaged neighbours")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cases := []*Bitmap{
		New(),
		FromSlice([]uint32{1, 2, 3, 70000, 1 << 30}),
		FromRange(0, 100000),
		func() *Bitmap {
			b := FromRange(0, 100000)
			b.Optimize()
			return b
		}(),
		func() *Bitmap {
			b := New()
			for v := uint32(0); v < 10000; v++ {
				b.Add(v * 3)
			}
			return b
		}(),
	}
	for i, b := range cases {
		var buf bytes.Buffer
		n, err := b.WriteTo(&buf)
		if err != nil {
			t.Fatalf("case %d: WriteTo: %v", i, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("case %d: WriteTo returned %d, wrote %d", i, n, buf.Len())
		}
		got := New()
		if _, err := got.ReadFrom(&buf); err != nil {
			t.Fatalf("case %d: ReadFrom: %v", i, err)
		}
		if !got.Equals(b) {
			t.Errorf("case %d: round trip mismatch: got %s want %s", i, got, b)
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	var b Bitmap
	if _, err := b.ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("ReadFrom accepted bad magic")
	}
	if _, err := b.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("ReadFrom accepted empty input")
	}
}

// --- property-based tests ---------------------------------------------------

// refSet is a reference implementation as a plain map.
type refSet map[uint32]bool

func buildPair(values []uint32) (*Bitmap, refSet) {
	b := New()
	ref := refSet{}
	for _, v := range values {
		b.Add(v)
		ref[v] = true
	}
	return b, ref
}

func (r refSet) slice() []uint32 {
	out := make([]uint32, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// clampValues keeps quick-generated values in a few chunks so containers of
// all three kinds get exercised, while still crossing chunk boundaries.
func clampValues(in []uint32) []uint32 {
	out := make([]uint32, len(in))
	for i, v := range in {
		out[i] = v % 200000
	}
	return out
}

// bitsetWordLens are the bitset lengths the property tests build operands
// at: the two shortest, the dense column of a 2 500-record shard (40 words)
// and of a 10 000-record store (157), and the two longest.
var bitsetWordLens = []int{1, 2, 40, 157, 1023, 1024}

// operand is one bitmap of a property test and the map model of its values.
type operand struct {
	name string
	bm   *Bitmap
	ref  refSet
}

// operandsOf builds values as Add builds them, and once per length of
// bitsetWordLens as range-sized bitsets of exactly that many words: each
// value keeps its chunk and wraps its low bits into the length's range, and
// every chunk also holds the range's last value.
func operandsOf(values []uint32) []operand {
	values = clampValues(values)
	b, ref := buildPair(values)
	out := []operand{{"add", b, ref}}
	for _, words := range bitsetWordLens {
		top := uint32(64*words - 1)
		var folded []uint32
		for _, v := range values {
			folded = append(folded, v&^0xffff|(v&0xffff)%(top+1), v&^0xffff|top)
		}
		b, ref := buildPair(folded)
		for i, c := range b.containers {
			bs := newBitsetContainer(words)
			c.each(func(v uint16) bool {
				bs.set(v)
				return true
			})
			b.containers[i] = bs
		}
		out = append(out, operand{fmt.Sprintf("%d-word bitsets", words), b, ref})
	}
	return out
}

// binaryMatchesReference checks op on the operands of av and bv, in every
// pairing whose two sides differ in layout or length (and Add-built on
// both), against the set keep selects from the two models, and that op
// left both operands as they were.
func binaryMatchesReference(t *testing.T, av, bv []uint32, op func(a, b *Bitmap) *Bitmap, keep func(inA, inB bool) bool) bool {
	t.Helper()
	as, bs := operandsOf(av), operandsOf(bv)
	for i, a := range as {
		for j, b := range bs {
			if i == j && i > 0 {
				continue
			}
			want := refSet{}
			for v := range a.ref {
				if keep(true, b.ref[v]) {
					want[v] = true
				}
			}
			for v := range b.ref {
				if keep(a.ref[v], true) {
					want[v] = true
				}
			}
			got := op(a.bm, b.bm)
			if !equalU32(got.ToSlice(), want.slice()) || got.Cardinality() != len(want) {
				t.Logf("%s with %s: %d values, want %d", a.name, b.name, got.Cardinality(), len(want))
				return false
			}
			if !equalU32(a.bm.ToSlice(), a.ref.slice()) || !equalU32(b.bm.ToSlice(), b.ref.slice()) {
				t.Logf("%s with %s changed an operand", a.name, b.name)
				return false
			}
		}
	}
	return true
}

// TestQuickAddMatchesReference adds values to every operand — past the last
// word of a short bitset too — one at a time and as a range.
func TestQuickAddMatchesReference(t *testing.T) {
	f := func(values, more []uint32, lo, n uint32) bool {
		lo, n = lo%200000, n%3000
		for _, o := range operandsOf(values) {
			for _, v := range clampValues(more) {
				if o.bm.Add(v) == o.ref[v] {
					return false
				}
				o.ref[v] = true
			}
			o.bm.AddRange(lo, lo+n)
			for v := lo; v < lo+n; v++ {
				o.ref[v] = true
			}
			if !equalU32(o.bm.ToSlice(), o.ref.slice()) || o.bm.Cardinality() != len(o.ref) {
				t.Logf("%s: %d values after adds, want %d", o.name, o.bm.Cardinality(), len(o.ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndMatchesReference(t *testing.T) {
	both := func(inA, inB bool) bool { return inA && inB }
	inPlace := func(a, b *Bitmap) *Bitmap {
		out := a.Clone()
		out.AndInPlace(b)
		return out
	}
	all := func(a, b *Bitmap) *Bitmap { return AndAllInto(nil, a, b, b) }
	f := func(av, bv []uint32) bool {
		return binaryMatchesReference(t, av, bv, (*Bitmap).And, both) &&
			binaryMatchesReference(t, av, bv, inPlace, both) &&
			binaryMatchesReference(t, av, bv, all, both)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrMatchesReference(t *testing.T) {
	f := func(av, bv []uint32) bool {
		return binaryMatchesReference(t, av, bv, (*Bitmap).Or, func(inA, inB bool) bool { return inA || inB })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndNotMatchesReference(t *testing.T) {
	f := func(av, bv []uint32) bool {
		return binaryMatchesReference(t, av, bv, (*Bitmap).AndNot, func(inA, inB bool) bool { return inA && !inB })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCardinalityShortcuts: the inclusion–exclusion identities
// |A ∪ B| = |A| + |B| − |A ∩ B| and |A − B| = |A| − |A ∩ B| hold for the
// materialized Or, AndNot and And.
func TestQuickCardinalityShortcuts(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, _ := buildPair(clampValues(av))
		b, _ := buildPair(clampValues(bv))
		inter := a.And(b).Cardinality()
		if a.Or(b).Cardinality() != a.Cardinality()+b.Cardinality()-inter {
			return false
		}
		return a.AndNot(b).Cardinality() == a.Cardinality()-inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// a AndNot b == a AndNot (a And b).
	f := func(av, bv []uint32) bool {
		a, _ := buildPair(clampValues(av))
		b, _ := buildPair(clampValues(bv))
		return a.AndNot(b).Equals(a.AndNot(a.And(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSerializeRoundTrip round-trips every operand as built, padded —
// every bitset grown to 1024 words, the zero top words remove and the
// in-place AND can leave — and optimized.
func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(values []uint32) bool {
		for _, o := range operandsOf(values) {
			for _, step := range []string{"built", "padded", "optimized"} {
				for _, c := range o.bm.containers {
					if bs, ok := c.(*bitsetContainer); ok && step == "padded" {
						bs.grow(bitsetWords)
					}
				}
				if step == "optimized" {
					o.bm.Optimize()
				}
				var buf bytes.Buffer
				if _, err := o.bm.WriteTo(&buf); err != nil {
					return false
				}
				got := New()
				if _, err := got.ReadFrom(&buf); err != nil || !equalU32(got.ToSlice(), o.ref.slice()) {
					t.Logf("%s (%s): round trip lost values (%v)", o.name, step, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemoveMatchesReference removes values from every operand, past
// the last word of a short bitset too.
func TestQuickRemoveMatchesReference(t *testing.T) {
	f := func(values, removals []uint32) bool {
		for _, o := range operandsOf(values) {
			for _, v := range clampValues(append(removals, values...)[:len(removals)+len(values)/2]) {
				if o.bm.Remove(v) != o.ref[v] {
					return false
				}
				delete(o.ref, v)
			}
			if !equalU32(o.bm.ToSlice(), o.ref.slice()) || o.bm.Cardinality() != len(o.ref) {
				t.Logf("%s: %d values after removals, want %d", o.name, o.bm.Cardinality(), len(o.ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := New()
	ref := refSet{}
	for i := 0; i < 200000; i++ {
		v := uint32(rng.Intn(1 << 21))
		if rng.Intn(4) == 0 {
			b.Remove(v)
			delete(ref, v)
		} else {
			b.Add(v)
			ref[v] = true
		}
	}
	if b.Cardinality() != len(ref) {
		t.Fatalf("cardinality = %d, want %d", b.Cardinality(), len(ref))
	}
	if !equalU32(b.ToSlice(), ref.slice()) {
		t.Fatal("stress: contents diverged from reference")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

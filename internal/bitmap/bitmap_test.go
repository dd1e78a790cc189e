package bitmap

import (
	"bytes"
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
	if _, ok := b.Minimum(); ok {
		t.Fatal("Minimum on empty reported ok")
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
	if v, ok := b.Minimum(); !ok || v != 7 {
		t.Errorf("Minimum = %d,%v want 7,true", v, ok)
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
	r.RunOptimize()
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

func TestXorBasic(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3})
	b := FromSlice([]uint32{2, 3, 4})
	got := a.Xor(b).ToSlice()
	want := []uint32{1, 4}
	if !equalU32(got, want) {
		t.Fatalf("Xor = %v, want %v", got, want)
	}
}

func TestOpsDoNotMutateOperands(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3, 70000})
	b := FromSlice([]uint32{2, 3, 4, 70001})
	aBefore, bBefore := a.ToSlice(), b.ToSlice()
	_ = a.And(b)
	_ = a.Or(b)
	_ = a.AndNot(b)
	_ = a.Xor(b)
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

func TestOrAll(t *testing.T) {
	got := OrAll(FromSlice([]uint32{1}), FromSlice([]uint32{2}), FromSlice([]uint32{1, 3}))
	want := FromSlice([]uint32{1, 2, 3})
	if !got.Equals(want) {
		t.Fatalf("OrAll = %s, want %s", got, want)
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
	if got := a.AndCardinality(b); got != 5000 {
		t.Fatalf("AndCardinality = %d, want 5000", got)
	}
	if got := a.AndCardinality(New()); got != 0 {
		t.Fatalf("AndCardinality vs empty = %d, want 0", got)
	}
}

func TestRunOptimizeKeepsValues(t *testing.T) {
	b := FromRange(100, 90000)
	b.Add(100000)
	before := b.Cardinality()
	sizeBefore := b.SizeBytes()
	b.RunOptimize()
	if b.Cardinality() != before {
		t.Fatalf("cardinality changed: %d -> %d", before, b.Cardinality())
	}
	if b.SizeBytes() > sizeBefore {
		t.Errorf("RunOptimize grew the bitmap: %d -> %d", sizeBefore, b.SizeBytes())
	}
	for _, v := range []uint32{100, 50000, 89999, 100000} {
		if !b.Contains(v) {
			t.Errorf("missing %d after RunOptimize", v)
		}
	}
	if b.Contains(99) || b.Contains(90000) {
		t.Error("RunOptimize leaked values")
	}
}

func TestRunContainerSplitOnRemove(t *testing.T) {
	b := FromRange(0, 100)
	b.RunOptimize()
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
			b.RunOptimize()
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

func TestQuickAddMatchesReference(t *testing.T) {
	f := func(values []uint32) bool {
		values = clampValues(values)
		b, ref := buildPair(values)
		return equalU32(b.ToSlice(), ref.slice()) && b.Cardinality() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndMatchesReference(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, aref := buildPair(clampValues(av))
		b, bref := buildPair(clampValues(bv))
		want := refSet{}
		for v := range aref {
			if bref[v] {
				want[v] = true
			}
		}
		return equalU32(a.And(b).ToSlice(), want.slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrMatchesReference(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, aref := buildPair(clampValues(av))
		b, bref := buildPair(clampValues(bv))
		want := refSet{}
		for v := range aref {
			want[v] = true
		}
		for v := range bref {
			want[v] = true
		}
		return equalU32(a.Or(b).ToSlice(), want.slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndNotMatchesReference(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, aref := buildPair(clampValues(av))
		b, bref := buildPair(clampValues(bv))
		want := refSet{}
		for v := range aref {
			if !bref[v] {
				want[v] = true
			}
		}
		return equalU32(a.AndNot(b).ToSlice(), want.slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickXorMatchesReference(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, aref := buildPair(clampValues(av))
		b, bref := buildPair(clampValues(bv))
		want := refSet{}
		for v := range aref {
			if !bref[v] {
				want[v] = true
			}
		}
		for v := range bref {
			if !aref[v] {
				want[v] = true
			}
		}
		return equalU32(a.Xor(b).ToSlice(), want.slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// a AndNot b == a AndNot (a And b); and Xor == (a Or b) AndNot (a And b).
	f := func(av, bv []uint32) bool {
		a, _ := buildPair(clampValues(av))
		b, _ := buildPair(clampValues(bv))
		lhs := a.AndNot(b)
		rhs := a.AndNot(a.And(b))
		if !lhs.Equals(rhs) {
			return false
		}
		x1 := a.Xor(b)
		x2 := a.Or(b).AndNot(a.And(b))
		return x1.Equals(x2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(values []uint32) bool {
		b, _ := buildPair(clampValues(values))
		b.RunOptimize()
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			return false
		}
		got := New()
		if _, err := got.ReadFrom(&buf); err != nil {
			return false
		}
		return got.Equals(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRemoveMatchesReference(t *testing.T) {
	f := func(values, removals []uint32) bool {
		values = clampValues(values)
		removals = clampValues(removals)
		b, ref := buildPair(values)
		for _, v := range removals {
			b.Remove(v)
			delete(ref, v)
		}
		return equalU32(b.ToSlice(), ref.slice())
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

package bitmap

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestRankBasic(t *testing.T) {
	b := FromSlice([]uint32{10, 20, 30, 70000})
	cases := []struct {
		v    uint32
		want int
	}{
		{0, 0}, {9, 0}, {10, 1}, {15, 1}, {20, 2}, {30, 3}, {69999, 3}, {70000, 4}, {1 << 30, 4},
	}
	for _, c := range cases {
		if got := b.Rank(c.v); got != c.want {
			t.Errorf("Rank(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestRankOnRuns(t *testing.T) {
	b := FromRange(100, 200)
	b.Optimize()
	if got := b.Rank(99); got != 0 {
		t.Errorf("Rank(99) = %d, want 0", got)
	}
	if got := b.Rank(150); got != 51 {
		t.Errorf("Rank(150) = %d, want 51", got)
	}
	if got := b.Rank(500); got != 100 {
		t.Errorf("Rank(500) = %d, want 100", got)
	}
}

func TestRankOnBitset(t *testing.T) {
	b := New()
	for v := uint32(0); v < 6000; v++ {
		b.Add(v * 2)
	}
	if _, ok := b.containers[0].(*bitsetContainer); !ok {
		t.Fatalf("expected bitset container, got %T", b.containers[0])
	}
	if got := b.Rank(100); got != 51 { // 0,2,...,100
		t.Errorf("Rank(100) = %d, want 51", got)
	}
	if got := b.Rank(101); got != 51 {
		t.Errorf("Rank(101) = %d, want 51", got)
	}
}

// TestSelectInverseOfRank: selecting the i-th smallest value (indexing
// ToSlice) inverts Rank — Rank(ToSlice()[i]) == i+1.
func TestSelectInverseOfRank(t *testing.T) {
	want := []uint32{5, 9, 100, 65536, 200001}
	b := FromSlice(want)
	got := b.ToSlice()
	if !equalU32(got, want) {
		t.Fatalf("ToSlice = %v, want %v", got, want)
	}
	for i, v := range got {
		if r := b.Rank(v); r != i+1 {
			t.Errorf("Rank(%d) = %d, want %d", v, r, i+1)
		}
	}
}

// TestQuickRankMatchesReference probes Rank, Contains, Maximum and
// RanksInto on every operand, with ids past the last word of a bitset and
// in chunks the bitmap lacks among them.
func TestQuickRankMatchesReference(t *testing.T) {
	f := func(values []uint32, probes []uint32) bool {
		probes = clampValues(probes)
		slices.Sort(probes)
		probes = slices.Compact(probes)
		idx := make([]int32, len(probes))
		for _, o := range operandsOf(values) {
			sorted := o.ref.slice()
			if top, ok := o.bm.Maximum(); ok != (len(sorted) > 0) || ok && top != sorted[len(sorted)-1] {
				t.Logf("%s: Maximum = %d, %v", o.name, top, ok)
				return false
			}
			o.bm.RanksInto(probes, idx)
			for i, p := range probes {
				want, _ := slices.BinarySearch(sorted, p+1) // values ≤ p
				wantIdx := int32(-1)
				if o.ref[p] {
					wantIdx = int32(want - 1)
				}
				if o.bm.Rank(p) != want || o.bm.Contains(p) != o.ref[p] || idx[i] != wantIdx {
					t.Logf("%s: probe %d: Rank %d, Contains %v, RanksInto %d; want %d, %v, %d",
						o.name, p, o.bm.Rank(p), o.bm.Contains(p), idx[i], want, o.ref[p], wantIdx)
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

func TestQuickSelectRankRoundTrip(t *testing.T) {
	f := func(values []uint32) bool {
		b, _ := buildPair(clampValues(values))
		sorted := b.ToSlice()
		ok := true
		i := 0
		b.Each(func(v uint32) bool {
			if i >= len(sorted) || sorted[i] != v || b.Rank(v) != i+1 {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

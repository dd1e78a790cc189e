package bitmap

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzReadFrom checks the bitmap deserializer never panics on arbitrary
// bytes, and that anything it does accept survives a write/read round trip.
func FuzzReadFrom(f *testing.F) {
	// Seed with valid serializations of the three container kinds.
	seeds := []*Bitmap{
		FromSlice([]uint32{1, 2, 3, 70000}),
		FromRange(0, 100000),
		func() *Bitmap {
			b := FromRange(0, 100000)
			b.RunOptimize()
			return b
		}(),
		New(),
	}
	for _, b := range seeds {
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0x42, 0x56, 0x52, 0x47}) // magic, nothing else
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var b Bitmap
		if _, err := b.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		// Accepted: must round trip and basic invariants must hold.
		card := b.Cardinality()
		if card < 0 {
			t.Fatal("negative cardinality")
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		var b2 Bitmap
		if _, err := b2.ReadFrom(&buf); err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if !b.Equals(&b2) {
			t.Fatal("round trip changed contents")
		}
	})
}

// FuzzIntersectKernels builds two sorted sets from the fuzz bytes (two bytes
// a value, masked to `width` bits so they collide) and checks the allocating
// array ∩ array kernel and the in-place one with dst as either operand, in
// both operand orders, against a map; that the probe scratch is all zero
// after every call; and RanksInto over every layout of the first set.
func FuzzIntersectKernels(f *testing.F) {
	lows := func(n, stride int) []byte {
		out := make([]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			out = binary.LittleEndian.AppendUint16(out, uint16(i*stride))
		}
		return out
	}
	f.Add(lows(100, 3), lows(100, 5), uint8(16))
	f.Add(lows(10, 7), lows(10*gallopRatio, 1), uint8(16))
	f.Add(lows(4, 64), lows(4*64, 1), uint8(12))
	f.Add(lows(1, 9), lows(1000, 1), uint8(16))
	f.Add([]byte{}, lows(50, 2), uint8(8))
	// Comparable operands holding 0 and 0xffff: the first and last probe word.
	edges := func(n, stride int) []byte {
		return binary.LittleEndian.AppendUint16(lows(n, stride), 0xffff)
	}
	f.Add(edges(300, 211), edges(400, 163), uint8(16))
	f.Add(edges(64, 1), edges(70, 1), uint8(16))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, width uint8) {
		mask := uint16(1)<<(width%17) - 1 // width 16 wraps to 0xffff
		set := func(raw []byte) ([]uint16, map[uint16]int) {
			var out []uint16
			for i := 0; i+1 < len(raw); i += 2 {
				out = append(out, binary.LittleEndian.Uint16(raw[i:])&mask)
			}
			slices.Sort(out)
			out = slices.Compact(out)
			pos := make(map[uint16]int, len(out))
			for i, v := range out {
				pos[v] = i
			}
			return out, pos
		}
		a, inA := set(rawA)
		b, _ := set(rawB)
		var want []uint16
		for _, v := range b {
			if _, ok := inA[v]; ok {
				want = append(want, v)
			}
		}
		var seen probeSet
		for _, ops := range [][2][]uint16{{a, b}, {b, a}} {
			x, y := ops[0], ops[1]
			if got := containerLows((&arrayContainer{values: x}).andArray(&arrayContainer{values: y}, &seen)); !slices.Equal(got, want) {
				t.Fatalf("andArray(%d, %d values) = %v, want %v", len(x), len(y), got, want)
			}
			acc := slices.Clone(x)
			if got := intersectInto(acc, acc, y, &seen); !slices.Equal(got, want) {
				t.Fatalf("intersectInto(dst = a, %d, %d values) = %v, want %v", len(x), len(y), got, want)
			}
			acc = slices.Clone(y)
			if got := intersectInto(acc, x, acc, &seen); !slices.Equal(got, want) {
				t.Fatalf("intersectInto(dst = b, %d, %d values) = %v, want %v", len(x), len(y), got, want)
			}
			if seen != (probeSet{}) {
				t.Fatalf("%d ∩ %d values leave probe bits set", len(x), len(y))
			}
		}

		// RanksInto: a's values in chunk 1, b's queried in chunks 0–2.
		if len(a) == 0 {
			return
		}
		vs := make([]uint32, 0, 3*len(b))
		for key := uint32(0); key < 3; key++ {
			for _, v := range b {
				vs = append(vs, key<<16|uint32(v))
			}
		}
		idx := make([]int32, len(vs))
		for layout, c := range layoutsOf(a) {
			bm := &Bitmap{keys: []uint16{1}, containers: []container{c}}
			bm.RanksInto(vs, idx)
			for i, id := range vs {
				want := int32(-1)
				if p, ok := inA[uint16(id)]; ok && id>>16 == 1 {
					want = int32(p)
				}
				if idx[i] != want {
					t.Fatalf("%s RanksInto(%d) = %d, want %d", layout, id, idx[i], want)
				}
			}
		}
	})
}

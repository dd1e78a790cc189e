package bitmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

// chunkBytes encodes one chunk as ReadFrom expects it: the header with
// nChunks = 1, the chunk's key, kind and n, then the payload.
func chunkBytes(kind uint8, n uint32, payload ...uint64) []byte {
	out := binary.LittleEndian.AppendUint32(nil, bitmapMagic)
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = binary.LittleEndian.AppendUint16(out, 5) // key
	out = append(out, kind)
	out = binary.LittleEndian.AppendUint32(out, n)
	for _, w := range payload {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// malformedBitsets are bitset chunks ReadFrom must refuse with ErrCorrupt:
// word counts 0 and 1 025, a zero last word, an all-zero payload, and a
// full (kind 1) bitset whose header cardinality is not its payload's.
func malformedBitsets() map[string][]byte {
	full := make([]uint64, bitsetWords)
	full[3] = 0b1011
	return map[string][]byte{
		"0 words":               chunkBytes(kindBitset, 0),
		"1025 words":            chunkBytes(kindBitset, bitsetWords+1, make([]uint64, bitsetWords+1)...),
		"zero last word":        chunkBytes(kindBitset, 3, 1, 2, 0),
		"empty":                 chunkBytes(kindBitset, 1, 0),
		"full, cardinality off": chunkBytes(kindFullBitset, 4, full...),
		"full, empty":           chunkBytes(kindFullBitset, 0, make([]uint64, bitsetWords)...),
	}
}

// FuzzReadFrom checks the bitmap deserializer never panics on arbitrary
// bytes, that what it refuses it refuses with ErrCorrupt or as input that
// ended early, and that anything it does accept survives a write/read round
// trip.
func FuzzReadFrom(f *testing.F) {
	// Seed with valid serializations of the three container kinds.
	seeds := []*Bitmap{
		FromSlice([]uint32{1, 2, 3, 70000}),
		FromRange(0, 100000),
		func() *Bitmap {
			b := FromRange(0, 100000)
			b.Optimize()
			return b
		}(),
		FromSlice([]uint32{3, 9, 30, 40, 41, 63, 64, 65, 127}), // one range-sized bitset of 2 words...
		New(),
	}
	seeds[3].Optimize() // ...once optimized
	for _, b := range seeds {
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0x42, 0x56, 0x52, 0x47}) // magic, nothing else
	f.Add([]byte{})
	for _, data := range malformedBitsets() {
		f.Add(data)
	}
	f.Add(chunkBytes(kindBitset, 2, 1<<63)) // payload one word short

	f.Fuzz(func(t *testing.T, data []byte) {
		var b Bitmap
		if _, err := b.ReadFrom(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error: %v", err)
			}
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

func TestReadFromRejectsMalformedBitsets(t *testing.T) {
	for name, data := range malformedBitsets() {
		var b Bitmap
		if _, err := b.ReadFrom(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadFrom error %v, want ErrCorrupt", name, err)
		}
	}
	var b Bitmap
	if _, err := b.ReadFrom(bytes.NewReader(chunkBytes(kindBitset, 2, 1<<63))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short payload: ReadFrom error %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFullBitsetChunkLoads decodes a kind-1 chunk — 1024 words, as builds
// before range-sized bitsets wrote every bitset — into the same values in a
// range-sized bitset, and re-encodes it as a kind-3 chunk of its words up to
// the highest set one.
func TestFullBitsetChunkLoads(t *testing.T) {
	words := make([]uint64, bitsetWords)
	var want []uint32
	for _, v := range []uint32{0, 1, 63, 64, 700, 2500} {
		words[v>>6] |= 1 << (v & 63)
		want = append(want, 5<<16|v)
	}
	var b Bitmap
	if _, err := b.ReadFrom(bytes.NewReader(chunkBytes(kindFullBitset, uint32(len(want)), words...))); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.ToSlice(), want) {
		t.Fatalf("decoded %v, want %v", b.ToSlice(), want)
	}
	bc, ok := b.containers[0].(*bitsetContainer)
	if !ok || len(bc.words) != 2500/64+1 || bc.card != len(want) {
		t.Fatalf("decoded into %T (%+v), want a %d-word bitset", b.containers[0], b.containers[0], 2500/64+1)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if want := chunkBytes(kindBitset, 2500/64+1, words[:2500/64+1]...); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("re-encoded as % x, want % x", buf.Bytes(), want)
	}
}

// FuzzIntersectKernels builds two sorted sets from the fuzz bytes (two bytes
// a value, masked to `width` bits so they collide) and checks the allocating
// array ∩ array kernel and the in-place one with dst as either operand, in
// both operand orders, against a map; that the probe scratch is all zero
// after every call; RanksInto over every layout of the first set; and every
// container kernel on the two sets folded into range-sized bitsets of each
// pair of different lengths in bitsetWordLens, against the sets' other
// layouts too.
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

		for i, la := range bitsetWordLens {
			checkKernels(t, foldLows(a, la), foldLows(b, bitsetWordLens[(i+1)%len(bitsetWordLens)]))
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

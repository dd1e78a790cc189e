// Package bitmap implements compressed bitmaps in the style of Roaring
// bitmaps (Chambi et al.): the 32-bit value space is chunked by the high 16
// bits, and each chunk is stored in whichever of three container layouts —
// sorted array, bitset, or run list — is most compact for its density.
//
// Within grove, a bitmap column b_i over the master relation holds the record
// ids that contain edge e_i (paper §4.2); all structural query evaluation
// reduces to And/Or/AndNot over these bitmaps.
package bitmap

import (
	"fmt"
	"slices"
	"strings"
)

// Bitmap is a compressed set of uint32 values.
//
// The zero value is an empty bitmap ready to use. Bitmap is not safe for
// concurrent mutation; concurrent readers are safe once construction is done.
type Bitmap struct {
	keys       []uint16 // sorted high-16-bit chunk keys
	containers []container
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// FromSlice builds a bitmap from arbitrary (unsorted, possibly duplicated)
// values.
func FromSlice(values []uint32) *Bitmap {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return FromSorted(slices.Compact(sorted))
}

// FromSorted builds a bitmap from strictly ascending values in one pass: each
// 64K chunk's values are cut out of the input once and stored as an array
// (or, past arrayMaxCardinality, a bitset) — the layouts Add would have
// reached, without its per-value chunk search and insertion shift. All array
// containers share one backing slice, capacity-clipped per chunk so a later
// Add to one reallocates instead of overwriting its neighbour. values is not
// retained.
func FromSorted(values []uint32) *Bitmap {
	b := New()
	if len(values) == 0 {
		return b
	}
	chunks := int(values[len(values)-1]>>16) - int(values[0]>>16) + 1
	chunks = min(chunks, len(values))
	b.keys = make([]uint16, 0, chunks)
	b.containers = make([]container, 0, chunks)
	lows := make([]uint16, len(values))
	for start := 0; start < len(values); {
		key := uint16(values[start] >> 16)
		end := start + 1
		for end < len(values) && uint16(values[end]>>16) == key {
			end++
		}
		var c container
		if n := end - start; n > arrayMaxCardinality {
			bs := newBitsetContainer(int(uint16(values[end-1])>>6) + 1)
			for _, v := range values[start:end] {
				bs.words[uint16(v)>>6] |= 1 << (v & 63)
			}
			bs.card = n
			c = bs
		} else {
			chunk := lows[start:end:end]
			for i, v := range values[start:end] {
				chunk[i] = uint16(v)
			}
			c = &arrayContainer{values: chunk}
		}
		b.keys = append(b.keys, key)
		b.containers = append(b.containers, c)
		start = end
	}
	return b
}

// FromRange builds a bitmap holding all values in [lo, hi).
func FromRange(lo, hi uint32) *Bitmap {
	b := New()
	b.AddRange(lo, hi)
	return b
}

func (b *Bitmap) chunkIndex(key uint16) (int, bool) {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.keys) && b.keys[lo] == key
}

func (b *Bitmap) insertChunk(i int, key uint16, c container) {
	b.keys = append(b.keys, 0)
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = key
	b.containers = append(b.containers, nil)
	copy(b.containers[i+1:], b.containers[i:])
	b.containers[i] = c
}

func (b *Bitmap) removeChunk(i int) {
	b.keys = append(b.keys[:i], b.keys[i+1:]...)
	b.containers = append(b.containers[:i], b.containers[i+1:]...)
}

// Add inserts v, reporting whether it was absent before.
func (b *Bitmap) Add(v uint32) bool {
	key, low := uint16(v>>16), uint16(v)
	i, found := b.chunkIndex(key)
	if !found {
		c := newArrayContainer()
		c.values = append(c.values, low)
		b.insertChunk(i, key, c)
		return true
	}
	c, added := b.containers[i].add(low)
	b.containers[i] = c
	return added
}

// AddRange inserts every value in [lo, hi).
func (b *Bitmap) AddRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	for v := uint64(lo); v < uint64(hi); {
		key := uint16(v >> 16)
		chunkEnd := (v | 0xffff) + 1
		end := chunkEnd
		if uint64(hi) < end {
			end = uint64(hi)
		}
		runLen := end - v // ≥1
		run := interval16{start: uint16(v), length: uint16(runLen - 1)}
		i, found := b.chunkIndex(key)
		if !found {
			b.insertChunk(i, key, newRunContainer([]interval16{run}))
		} else {
			merged := b.containers[i].or(newRunContainer([]interval16{run}))
			b.containers[i] = merged
		}
		v = end
	}
}

// Remove deletes v, reporting whether it was present.
func (b *Bitmap) Remove(v uint32) bool {
	key, low := uint16(v>>16), uint16(v)
	i, found := b.chunkIndex(key)
	if !found {
		return false
	}
	c, removed := b.containers[i].remove(low)
	if c.cardinality() == 0 {
		b.removeChunk(i)
	} else {
		b.containers[i] = c
	}
	return removed
}

// Contains reports whether v is in the bitmap.
func (b *Bitmap) Contains(v uint32) bool {
	key, low := uint16(v>>16), uint16(v)
	i, found := b.chunkIndex(key)
	return found && b.containers[i].contains(low)
}

// Cardinality returns the number of values in the bitmap.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.containers {
		n += c.cardinality()
	}
	return n
}

// IsEmpty reports whether the bitmap holds no values.
func (b *Bitmap) IsEmpty() bool { return len(b.containers) == 0 }

// Maximum returns the largest value; ok is false when empty.
func (b *Bitmap) Maximum() (v uint32, ok bool) {
	if b.IsEmpty() {
		return 0, false
	}
	last := len(b.containers) - 1
	return uint32(b.keys[last])<<16 | uint32(b.containers[last].max()), true
}

// And returns the intersection of b and other as a new bitmap.
func (b *Bitmap) And(other *Bitmap) *Bitmap {
	out := New()
	var seen probeSet
	out.andInto(b, other, &seen)
	return out
}

// Or returns the union of b and other as a new bitmap.
func (b *Bitmap) Or(other *Bitmap) *Bitmap {
	out := New()
	i, j := 0, 0
	for i < len(b.keys) || j < len(other.keys) {
		switch {
		case j >= len(other.keys) || (i < len(b.keys) && b.keys[i] < other.keys[j]):
			out.keys = append(out.keys, b.keys[i])
			out.containers = append(out.containers, b.containers[i].clone())
			i++
		case i >= len(b.keys) || b.keys[i] > other.keys[j]:
			out.keys = append(out.keys, other.keys[j])
			out.containers = append(out.containers, other.containers[j].clone())
			j++
		default:
			out.keys = append(out.keys, b.keys[i])
			out.containers = append(out.containers, b.containers[i].or(other.containers[j]))
			i++
			j++
		}
	}
	return out
}

// AndNot returns the difference b − other as a new bitmap.
func (b *Bitmap) AndNot(other *Bitmap) *Bitmap {
	out := New()
	j := 0
	for i := 0; i < len(b.keys); i++ {
		for j < len(other.keys) && other.keys[j] < b.keys[i] {
			j++
		}
		if j < len(other.keys) && other.keys[j] == b.keys[i] {
			if c := b.containers[i].andNot(other.containers[j]); c != nil && c.cardinality() > 0 {
				out.keys = append(out.keys, b.keys[i])
				out.containers = append(out.containers, c)
			}
		} else {
			out.keys = append(out.keys, b.keys[i])
			out.containers = append(out.containers, b.containers[i].clone())
		}
	}
	return out
}

// AndAll intersects all given bitmaps. With no arguments it returns an empty
// bitmap. Bitmaps are intersected smallest-cardinality-first so intermediate
// results shrink as early as possible. The argument slice is left untouched;
// callers that own their operand slice and an accumulator should use
// AndAllInto directly to skip the defensive copy.
func AndAll(bitmaps ...*Bitmap) *Bitmap {
	scratch := make([]*Bitmap, len(bitmaps))
	copy(scratch, bitmaps)
	return AndAllInto(New(), scratch...)
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := New()
	out.keys = make([]uint16, len(b.keys))
	copy(out.keys, b.keys)
	out.containers = make([]container, len(b.containers))
	for i, c := range b.containers {
		out.containers[i] = c.clone()
	}
	return out
}

// Equals reports whether b and other hold exactly the same values.
func (b *Bitmap) Equals(other *Bitmap) bool {
	if b.Cardinality() != other.Cardinality() {
		return false
	}
	equal := true
	i := 0
	vals := other.ToSlice()
	b.Each(func(v uint32) bool {
		if i >= len(vals) || vals[i] != v {
			equal = false
			return false
		}
		i++
		return true
	})
	return equal && i == len(vals)
}

// Each calls f for every value in ascending order; stops early if f returns
// false.
func (b *Bitmap) Each(f func(v uint32) bool) {
	for i, c := range b.containers {
		high := uint32(b.keys[i]) << 16
		if !c.each(func(low uint16) bool { return f(high | uint32(low)) }) {
			return
		}
	}
}

// ToSlice returns all values in ascending order.
func (b *Bitmap) ToSlice() []uint32 {
	out := make([]uint32, 0, b.Cardinality())
	b.Each(func(v uint32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// SizeBytes reports the approximate in-memory payload size, used by grove's
// space-budget accounting (a materialized graph view is one bitmap column;
// the paper charges all bitmap columns the same unit cost, but we also expose
// the physical size).
func (b *Bitmap) SizeBytes() int {
	n := 2 * len(b.keys)
	for _, c := range b.containers {
		n += c.sizeBytes()
	}
	return n
}

// Optimize rebuilds every container in the smallest of its three layouts:
// an array costs 2 bytes a value, a bitset 8 bytes a word up to the word of
// its highest value, runs 4 bytes a run. Ties go to the array, then the
// bitset. (Roaring's rule — an array up to 4096 values — is the case of a
// chunk whose values span all 1024 words.) Call after bulk loading.
func (b *Bitmap) Optimize() {
	for i, c := range b.containers {
		b.containers[i] = optimized(c)
	}
}

// optimized returns c in its smallest layout: c itself when it already is
// in it (a bitset only when it holds no spare words), else a fresh container.
func optimized(c container) container {
	runs, prev := 0, -2
	c.each(func(v uint16) bool {
		if int(v) != prev+1 {
			runs++
		}
		prev = int(v)
		return true
	})
	card, top := c.cardinality(), int(c.max()>>6)+1
	switch array, bitset := 2*card, 8*top; {
	case 4*runs < min(array, bitset):
		if _, ok := c.(*runContainer); ok {
			return c
		}
		rs := make([]interval16, 0, runs)
		c.each(func(v uint16) bool {
			if n := len(rs); n > 0 && rs[n-1].end()+1 == uint32(v) {
				rs[n-1].length++
			} else {
				rs = append(rs, interval16{start: v})
			}
			return true
		})
		return newRunContainer(rs)
	case bitset < array:
		if bc, ok := c.(*bitsetContainer); ok && len(bc.words) == top && cap(bc.words) == top {
			return c
		}
		out := newBitsetContainer(top)
		c.each(func(v uint16) bool {
			out.words[v>>6] |= 1 << (v & 63)
			return true
		})
		out.card = card
		return out
	}
	if _, ok := c.(*arrayContainer); ok {
		return c
	}
	out := make([]uint16, 0, card)
	c.each(func(v uint16) bool {
		out = append(out, v)
		return true
	})
	return &arrayContainer{values: out}
}

// String renders a short human-readable description.
func (b *Bitmap) String() string {
	card := b.Cardinality()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Bitmap{card=%d", card)
	if card > 0 && card <= 16 {
		sb.WriteString(", values=[")
		first := true
		b.Each(func(v uint32) bool {
			if !first {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", v)
			first = false
			return true
		})
		sb.WriteByte(']')
	}
	sb.WriteByte('}')
	return sb.String()
}

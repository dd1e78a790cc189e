package bitmap

import (
	"math/bits"
	"slices"
)

// Block-at-a-time decode and rank kernels. The closure-based Each/Rank APIs
// cost an indirect call per bit (or a container binary search per lookup),
// which dominates measure materialization once the structural phase is
// bitmap-cheap. The kernels below decode container contents into caller-owned
// uint32 blocks and translate sorted record ids into dense value indexes in
// one cursored pass, with no per-bit function calls.

// BlockSize is the recommended capacity for NextMany block buffers: large
// enough to amortize per-block bookkeeping, small enough to stay resident in
// L1 while a fused consumer folds it.
const BlockSize = 256

// Iterator decodes a bitmap block-at-a-time in ascending value order. Obtain
// one with Bitmap.Iterator; the zero value is an exhausted iterator. An
// Iterator is invalidated by any mutation of the underlying bitmap and must
// not be shared across goroutines.
type Iterator struct {
	b  *Bitmap
	ci int // current container index

	// Per-container cursor. Exactly one of the three families is active,
	// selected by the current container's layout.
	ai   int    // arrayContainer: next value index; runContainer: current run index
	off  uint32 // runContainer: offset within the current run
	wi   int    // bitsetContainer: current word index
	word uint64 // bitsetContainer: unconsumed bits of words[wi]
}

// Iterator returns a block decoder positioned at the smallest value.
func (b *Bitmap) Iterator() Iterator {
	it := Iterator{b: b}
	it.enterContainer()
	return it
}

// enterContainer initializes the per-container cursor for container ci.
func (it *Iterator) enterContainer() {
	it.ai, it.off, it.wi, it.word = 0, 0, 0, 0
	if it.b == nil || it.ci >= len(it.b.containers) {
		return
	}
	if bc, ok := it.b.containers[it.ci].(*bitsetContainer); ok {
		it.word = bc.words[0]
	}
}

// NextMany decodes up to len(buf) values into buf and returns how many were
// written. It returns 0 exactly when the iterator is exhausted (len(buf)==0
// is the caller's bug). Values arrive in strictly ascending order across
// calls.
//
//grove:hotpath
func (it *Iterator) NextMany(buf []uint32) int {
	n := 0
	for it.b != nil && it.ci < len(it.b.containers) && n < len(buf) {
		high := uint32(it.b.keys[it.ci]) << 16
		switch c := it.b.containers[it.ci].(type) {
		case *arrayContainer:
			for it.ai < len(c.values) && n < len(buf) {
				buf[n] = high | uint32(c.values[it.ai])
				it.ai++
				n++
			}
			if it.ai < len(c.values) {
				return n
			}
		case *bitsetContainer:
			for it.wi < len(c.words) {
				w := it.word
				for w != 0 && n < len(buf) {
					buf[n] = high | uint32(it.wi*64+bits.TrailingZeros64(w))
					w &= w - 1
					n++
				}
				if w != 0 {
					it.word = w
					return n
				}
				it.wi++
				if it.wi < len(c.words) {
					it.word = c.words[it.wi]
				}
			}
		case *runContainer:
			for it.ai < len(c.runs) {
				r := c.runs[it.ai]
				length := uint32(r.length)
				for it.off <= length && n < len(buf) {
					buf[n] = high | (uint32(r.start) + it.off)
					it.off++
					n++
				}
				if it.off <= length {
					return n
				}
				it.ai++
				it.off = 0
			}
		}
		it.ci++
		it.enterContainer()
	}
	return n
}

// AppendInto appends every value of b to dst in ascending order and returns
// the extended slice — the reusable-buffer form of ToSlice. It decodes
// container-at-a-time with no per-bit closure calls.
//
//grove:hotpath
func (b *Bitmap) AppendInto(dst []uint32) []uint32 {
	if need := len(dst) + b.Cardinality(); cap(dst) < need {
		grown := make([]uint32, len(dst), need) //grovevet:ignore hotalloc grow path only; callers pass pooled buffers that plateau at the largest answer set
		copy(grown, dst)
		dst = grown
	}
	for i, c := range b.containers {
		high := uint32(b.keys[i]) << 16
		switch cc := c.(type) {
		case *arrayContainer:
			for _, v := range cc.values {
				dst = append(dst, high|uint32(v))
			}
		case *bitsetContainer:
			for wi, w := range cc.words {
				for w != 0 {
					dst = append(dst, high|uint32(wi*64+bits.TrailingZeros64(w)))
					w &= w - 1
				}
			}
		case *runContainer:
			for _, r := range cc.runs {
				v := high | uint32(r.start)
				for k := uint32(0); k <= uint32(r.length); k++ {
					dst = append(dst, v+k)
				}
			}
		}
	}
	return dst
}

// RanksInto is the batch form of Rank-1/Contains over a sorted query set:
// for every ascending vs[i] it stores into idx[i] the dense value index
// (Rank(vs[i])-1) when vs[i] is present, and -1 when absent. idx must have
// len(vs). The ids of one 64K chunk go to that chunk's container together,
// and each layout ranks them in its own loop: an array scans or gallops by
// rankGallopRatio, a bitset accumulates word
// popcounts up to each id, a run container sums run lengths up to each id.
// Container cardinalities before the chunk are summed once per call.
//
// Indexes are int32, which bounds the addressable cardinality at 2^31-1
// values — far beyond the uint32 record-id space a measure column indexes in
// practice (a column that dense would be ~16 GiB of float64 payload).
//
//grove:hotpath
func (b *Bitmap) RanksInto(vs []uint32, idx []int32) {
	_ = idx[:len(vs)]
	base, ci := 0, 0 // base: cardinality of the containers before ci
	for len(vs) > 0 {
		key := uint16(vs[0] >> 16)
		n := len(vs)
		if uint16(vs[n-1]>>16) != key {
			n, _ = slices.BinarySearch(vs, uint32(key+1)<<16)
		}
		for ci < len(b.keys) && b.keys[ci] < key {
			base += b.containers[ci].cardinality()
			ci++
		}
		chunk, out := vs[:n], idx[:n]
		var c container // nil: no container for this chunk, every id is absent
		if ci < len(b.keys) && b.keys[ci] == key {
			c = b.containers[ci]
		}
		switch cc := c.(type) {
		case *arrayContainer:
			rankArray(cc.values, chunk, out, base)
		case *bitsetContainer:
			rankBitset(cc.words, chunk, out, base)
		case *runContainer:
			rankRuns(cc.runs, chunk, out, base)
		default:
			for k := range out {
				out[k] = -1
			}
		}
		vs, idx = vs[n:], idx[n:]
	}
}

// rankGallopRatio is the length ratio from which rankArray gallops through
// the array instead of scanning it: the crossover measured for the scan,
// which is not array ∩ array's probe (DESIGN.md §10).
const rankGallopRatio = 8

// rankArray ranks one chunk's ascending ids against a sorted array: a merge
// when the two are comparable in length, a gallop through the array when it
// is at least rankGallopRatio times longer.
//
//grove:hotpath
func rankArray(values []uint16, vs []uint32, idx []int32, base int) {
	idx = idx[:len(vs)]
	j := 0
	gallop := len(values) >= rankGallopRatio*len(vs)
	for k, v := range vs {
		low := uint16(v)
		if gallop {
			j = gallopValues(values, j, low)
		} else {
			for j < len(values) && values[j] < low {
				j++
			}
		}
		idx[k] = -1
		if j < len(values) && values[j] == low {
			idx[k] = int32(base + j)
		}
	}
}

// rankBitset ranks one chunk's ascending ids against a bitset, carrying the
// popcount of the words below the cursor from id to id. The ids past the
// last word are absent.
//
//grove:hotpath
func rankBitset(words []uint64, vs []uint32, idx []int32, base int) {
	idx = idx[:len(vs)]
	wi, pref := 0, base // pref: base + set bits in words[:wi]
	for k, v := range vs {
		w := int(uint16(v) >> 6)
		if w >= len(words) {
			for k := k; k < len(idx); k++ {
				idx[k] = -1
			}
			return
		}
		for ; wi < w; wi++ {
			pref += bits.OnesCount64(words[wi])
		}
		word, bit := words[w], uint64(1)<<(v&63)
		r := int32(pref + bits.OnesCount64(word&(bit-1)))
		if word&bit == 0 {
			r = -1
		}
		idx[k] = r
	}
}

// rankRuns ranks one chunk's ascending ids against a run list, carrying the
// number of values in the runs below the cursor from id to id.
//
//grove:hotpath
func rankRuns(runs []interval16, vs []uint32, idx []int32, base int) {
	idx = idx[:len(vs)]
	ri, pref := 0, base // pref: base + values in runs[:ri]
	for k, v := range vs {
		low := uint16(v)
		for ri < len(runs) && runs[ri].end() < uint32(low) {
			pref += int(runs[ri].length) + 1
			ri++
		}
		idx[k] = -1
		if ri < len(runs) && runs[ri].start <= low {
			idx[k] = int32(pref + int(low-runs[ri].start))
		}
	}
}

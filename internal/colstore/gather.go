package colstore

import (
	"sync"

	"grove/internal/bitmap"
)

// Block-at-a-time measure access. GatherInto and AggregateInto are the
// vectorized successors of ValuesFor: they read a column for a sorted answer
// set with the bitmap batch kernels (RanksInto for sparse answers, block
// decode for dense ones) instead of per-record binary searches or per-bit
// closure calls, and they write into caller-owned (poolable) buffers so the
// steady-state measure path allocates nothing.

// rankScratchPool recycles the dense-index scratch of the sparse gather path
// across queries and goroutines.
var rankScratchPool = sync.Pool{New: func() any { return new([]int32) }}

// mergeGather reports whether an answer of len(recs) records should read a
// column of cnt values with the block-decode merge instead of the batch-rank
// kernel. The merge pays O(cnt) to decode every present value, so it only
// wins when the answer covers most of the column (measured crossover ≈ 4/5
// on run-optimized columns — EXPERIMENTS.md, "Vectorized measure scan");
// everything sparser runs RanksInto, which skips absent regions at
// word-popcount granularity.
//
//grove:hotpath
func mergeGather(numRecs, cnt int) bool { return numRecs*5 >= cnt*4 }

// GatherInto reads the column for the given strictly ascending record ids in
// one batch, filling values[i] and present[i] per id (absent slots are
// zeroed, so dirty pooled buffers are safe to pass). values and present must
// have at least len(recs) entries. It returns the number of present values.
//
// This is ValuesFor with the allocation and the per-value overheads removed:
// small answer sets run the cursored batch-rank kernel (one container walk
// for the whole batch), large ones a single merge against block-decoded
// presence ids.
//
//grove:hotpath
func (c *MeasureColumn) GatherInto(recs []uint32, values []float64, present []bool) int {
	values = values[:len(recs)]
	present = present[:len(recs)]
	if len(recs) == 0 {
		return 0
	}
	var rd valueReader
	rd.init(c)
	defer rd.release()
	if !mergeGather(len(recs), c.Count()) {
		scratch := rankScratchPool.Get().(*[]int32)
		idx := *scratch
		if cap(idx) < len(recs) {
			idx = make([]int32, len(recs)) //grovevet:ignore hotalloc pooled-scratch grow path; plateaus at the largest answer set
		}
		idx = idx[:len(recs)]
		c.present.RanksInto(recs, idx)
		n := 0
		for i, x := range idx {
			if x >= 0 {
				values[i] = rd.at(int(x))
				present[i] = true
				n++
			} else {
				values[i] = 0
				present[i] = false
			}
		}
		*scratch = idx
		rankScratchPool.Put(scratch)
		return n
	}
	for i := range present {
		values[i] = 0
		present[i] = false
	}
	var ids [bitmap.BlockSize]uint32
	it := c.present.Iterator()
	i := 0 // index into recs
	off := 0
	n := 0
	for i < len(recs) {
		m := it.NextMany(ids[:])
		if m == 0 {
			break
		}
		// Optimistic aligned prefix: in the common near-full-cover case the
		// decoded block IS the next stretch of recs, and the intersection
		// degenerates to a straight copy.
		k := 0
		for k < m && i < len(recs) && recs[i] == ids[k] {
			values[i] = rd.at(off + k)
			present[i] = true
			i++
			k++
		}
		n += k
		for ; k < m; k++ {
			rec := ids[k]
			for i < len(recs) && recs[i] < rec {
				i++
			}
			if i >= len(recs) {
				break
			}
			if recs[i] == rec {
				values[i] = rd.at(off + k)
				present[i] = true
				n++
				i++
			}
		}
		off += m
	}
	return n
}

// AggregateInto folds the column's values for the given strictly ascending
// record ids into acc with the block-reduce kernel, without materializing
// values/present slices: matched values are gathered into a stack block and
// reduced block-at-a-time. It returns the folded accumulator and how many
// values were present (the MeasuresScanned contribution). Absent records
// contribute nothing.
//
//grove:hotpath
func (c *MeasureColumn) AggregateInto(recs []uint32, acc float64, reduce func(acc float64, values []float64) float64) (float64, int) {
	if len(recs) == 0 || c.valueCount() == 0 {
		return acc, 0
	}
	var rd valueReader
	rd.init(c)
	defer rd.release()
	var block [bitmap.BlockSize]float64 //grovevet:ignore hotalloc the block escapes through the reduce func value: one fixed-size buffer per call, amortized over BlockSize-wide folds
	bn, n := 0, 0
	if !mergeGather(len(recs), c.Count()) {
		scratch := rankScratchPool.Get().(*[]int32)
		idx := *scratch
		if cap(idx) < len(recs) {
			idx = make([]int32, len(recs)) //grovevet:ignore hotalloc pooled-scratch grow path; plateaus at the largest answer set
		}
		idx = idx[:len(recs)]
		c.present.RanksInto(recs, idx)
		for _, x := range idx {
			if x < 0 {
				continue
			}
			block[bn] = rd.at(int(x))
			bn++
			if bn == len(block) {
				acc = reduce(acc, block[:])
				n += bn
				bn = 0
			}
		}
		*scratch = idx
		rankScratchPool.Put(scratch)
	} else {
		var ids [bitmap.BlockSize]uint32
		it := c.present.Iterator()
		i, off := 0, 0
		for i < len(recs) {
			m := it.NextMany(ids[:])
			if m == 0 {
				break
			}
			// Aligned fast path: when the block matches recs one-for-one
			// and the fold block is empty, reduce the column values
			// directly — no copy at all. window is nil when the span
			// straddles a storage-block boundary of a paged column; the
			// per-value loop below then preserves the exact fold order.
			if bn == 0 && m <= len(recs)-i && recs[i] == ids[0] &&
				recs[i+m-1] == ids[m-1] && alignedU32(recs[i:i+m], ids[:m]) {
				if vals := rd.window(off, m); vals != nil {
					acc = reduce(acc, vals)
					n += m
					i += m
					off += m
					continue
				}
			}
			for k := 0; k < m; k++ {
				rec := ids[k]
				for i < len(recs) && recs[i] < rec {
					i++
				}
				if i >= len(recs) {
					break
				}
				if recs[i] == rec {
					block[bn] = rd.at(off + k)
					bn++
					i++
					if bn == len(block) {
						acc = reduce(acc, block[:])
						n += bn
						bn = 0
					}
				}
			}
			off += m
		}
	}
	if bn > 0 {
		acc = reduce(acc, block[:bn])
		n += bn
	}
	return acc, n
}

// alignedU32 reports whether a and b are element-wise equal. Callers have
// already matched both endpoints of two strictly ascending sequences, so a
// mismatch is rare and the scan usually runs to completion.
//
//grove:hotpath
func alignedU32(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Package colstore implements grove's column-oriented storage engine: the
// "master relation" R(recid, m1..mn, b1..bn, views...) of the paper (§4.1,
// §5.1.3). Measures are stored as sparse NULL-compressed columns, edge
// presence as compressed bitmap columns, and the relation is vertically
// partitioned into sub-relations of bounded width (§6.1).
package colstore

import (
	"fmt"
	"math"
	"sync/atomic"

	"grove/internal/bitmap"
)

// MeasureColumn stores one float64 measure per record, with NULLs compressed
// away: a presence bitmap plus the non-NULL values in record id order. This
// is the columnar analogue of "vertical compression of columns with many
// NULL values" (§4.1).
//
// The values live in exactly one of two places: a resident dense slice
// (columns being written) or a paged block index backed by a snapshot file
// (loaded columns), faulted in block-at-a-time through the relation's buffer
// pool, where a reader pins the block it is on. Readers go through
// valueReader / the paged accessors so both representations answer
// identically; the first mutation of a paged column materializes it (see
// paged.go).
type MeasureColumn struct {
	present *bitmap.Bitmap
	values  []float64
	paged   *pagedData
	size    keptSize
}

// NewMeasureColumn returns an empty measure column.
func NewMeasureColumn() *MeasureColumn {
	return &MeasureColumn{present: bitmap.New()}
}

// Set stores v for record rec, replacing any prior value. Appending in
// ascending record order is O(1); out-of-order sets pay a rank and an O(n)
// insert. A
// paged column is materialized in full on its first Set: written columns are
// resident columns, and re-paging happens at the next Save/Load cycle.
func (c *MeasureColumn) Set(rec uint32, v float64) {
	c.size.forget()
	if c.paged != nil {
		if err := c.materialize(); err != nil {
			// Materialization failed (disk fault). Drop the write rather than
			// corrupt the column; the sticky source error is surfaced through
			// Relation.PageError.
			return
		}
	}
	if last, ok := c.present.Maximum(); !ok || rec > last {
		// Tail append, the only case a growing collection produces: no
		// membership probe, no rank.
		c.present.Add(rec)
		c.values = append(c.values, v)
		return
	}
	if c.present.Contains(rec) {
		c.values[c.present.Rank(rec)-1] = v
		return
	}
	idx := c.present.Rank(rec)
	c.present.Add(rec)
	if idx == len(c.values) {
		c.values = append(c.values, v)
		return
	}
	c.values = append(c.values, 0)
	copy(c.values[idx+1:], c.values[idx:])
	c.values[idx] = v
}

// Get returns the value for rec; ok is false when the record has a NULL in
// this column (the record does not contain the edge).
func (c *MeasureColumn) Get(rec uint32) (v float64, ok bool) {
	if !c.present.Contains(rec) {
		return 0, false
	}
	return c.valueAt(c.present.Rank(rec) - 1), true
}

// Present returns the presence bitmap, read-only: callers must not mutate it
// (a change would also leave the kept SizeBytes stale).
func (c *MeasureColumn) Present() *bitmap.Bitmap { return c.present }

// Count returns the number of non-NULL entries.
func (c *MeasureColumn) Count() int { return c.valueCount() }

// ForEach visits all non-NULL (rec, value) pairs in ascending record order.
func (c *MeasureColumn) ForEach(f func(rec uint32, v float64) bool) {
	var rd valueReader
	rd.init(c)
	defer rd.release()
	i := 0
	c.present.Each(func(rec uint32) bool {
		ok := f(rec, rd.at(i))
		i++
		return ok
	})
}

// ValuesFor reads the column for the given ascending record ids in one
// batch, returning a value and a presence flag per id. It is the allocating
// convenience form of GatherInto; hot paths should pool their buffers and
// call GatherInto directly.
func (c *MeasureColumn) ValuesFor(recs []uint32) (values []float64, present []bool) {
	values = make([]float64, len(recs))
	present = make([]bool, len(recs))
	c.GatherInto(recs, values, present)
	return values, present
}

// SizeBytes reports the approximate logical payload size (presence bitmap +
// values). For a paged column this is deliberately the decoded size, not the
// bytes currently resident: the cost model charges what a fetch logically
// touches, and cache state must not change query costs. Residency is
// reported separately by ResidentValueBytes/EncodedValueBytes.
func (c *MeasureColumn) SizeBytes() int {
	if n, ok := c.size.load(); ok {
		return n
	}
	return c.size.store(c.present.SizeBytes() + 8*c.valueCount())
}

// optimize rebuilds the presence bitmap in its most compact layouts.
func (c *MeasureColumn) optimize() {
	c.size.forget()
	c.present.Optimize()
}

// validate checks internal invariants; used by tests and loaders. For a
// paged column only the cheap structural invariant is checked here — NaN
// rejection happens at encode time (Save) and corruption is caught by the
// snapshot checksum and the hardened block decoders.
func (c *MeasureColumn) validate() error {
	if c.present.Cardinality() != c.valueCount() {
		return fmt.Errorf("colstore: measure column presence/value mismatch: %d vs %d",
			c.present.Cardinality(), c.valueCount())
	}
	for _, v := range c.values {
		if math.IsNaN(v) {
			return fmt.Errorf("colstore: NaN measure value")
		}
	}
	return nil
}

// BitmapColumn is a boolean column over the record id space: bit r is set iff
// record r satisfies the column's predicate (contains an edge, matches a
// view's edge set, or contains a view's path).
type BitmapColumn struct {
	bits *bitmap.Bitmap
	size keptSize
}

// NewBitmapColumn returns an empty bitmap column.
func NewBitmapColumn() *BitmapColumn {
	return &BitmapColumn{bits: bitmap.New()}
}

// NewBitmapColumnFrom wraps an existing bitmap (taking ownership).
func NewBitmapColumnFrom(b *bitmap.Bitmap) *BitmapColumn {
	return &BitmapColumn{bits: b}
}

// Set marks record rec.
func (c *BitmapColumn) Set(rec uint32) {
	c.size.forget()
	c.bits.Add(rec)
}

// Contains reports whether rec is marked.
func (c *BitmapColumn) Contains(rec uint32) bool { return c.bits.Contains(rec) }

// Bits exposes the underlying bitmap, read-only: callers must not mutate it
// (a change would also leave the kept SizeBytes stale; Set and optimize are
// the column's only writers). Use Clone for derived computations (binary
// ops already allocate fresh results).
func (c *BitmapColumn) Bits() *bitmap.Bitmap { return c.bits }

// Cardinality returns the number of marked records.
func (c *BitmapColumn) Cardinality() int { return c.bits.Cardinality() }

// SizeBytes reports the approximate payload size.
func (c *BitmapColumn) SizeBytes() int {
	if n, ok := c.size.load(); ok {
		return n
	}
	return c.size.store(c.bits.SizeBytes())
}

// optimize rebuilds the bitmap in its most compact layouts.
func (c *BitmapColumn) optimize() {
	c.size.forget()
	c.bits.Optimize()
}

// keptSize holds a column's SizeBytes between writes, so the fetches that
// charge it on every query do not walk the column's containers. A writer
// (under the relation's write lock) forgets it; the first reader after the
// write recomputes and stores it. Readers share the read lock, so several
// may recompute at once, and they store the same value.
type keptSize struct {
	v atomic.Int64 // size + 1; 0 = not known
}

// forget is a load on the append path: only a size a fetch has stored since
// the last write needs the store (an atomic exchange).
func (k *keptSize) forget() {
	if k.v.Load() != 0 {
		k.v.Store(0)
	}
}

func (k *keptSize) load() (int, bool) {
	v := k.v.Load()
	return int(v - 1), v != 0
}

func (k *keptSize) store(n int) int {
	k.v.Store(int64(n) + 1)
	return n
}

// Package colstore implements grove's column-oriented storage engine: the
// "master relation" R(recid, m1..mn, b1..bn, views...) of the paper (§4.1,
// §5.1.3). Measures are stored as sparse NULL-compressed columns, edge
// presence as compressed bitmap columns, and the relation is vertically
// partitioned into sub-relations of bounded width (§6.1).
package colstore

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"grove/internal/bitmap"
)

// MeasureColumn stores one float64 measure per record, with NULLs compressed
// away: a presence bitmap plus the non-NULL values in record id order. This
// is the columnar analogue of "vertical compression of columns with many
// NULL values" (§4.1).
//
// The values form one sequence in two regions. The paged prefix holds the
// values the column had when it was loaded from a snapshot: a block index,
// faulted in block at a time through the relation's buffer pool, where a
// reader pins the block it is on (see paged.go). The resident tail holds
// every value appended since. A column that was never saved has an empty
// prefix; one just loaded has an empty tail. Appends only ever touch the
// tail; a write inside the prefix (a replace or insert for an old record)
// first reads the prefix in and folds it into the tail (materialize).
type MeasureColumn struct {
	present *bitmap.Bitmap
	prefix  *pagedData // nil: the prefix is empty
	tail    []float64
	size    keptSize
}

// NewMeasureColumn returns an empty measure column.
func NewMeasureColumn() *MeasureColumn {
	return &MeasureColumn{present: bitmap.New()}
}

// Set stores v for record rec, replacing any prior value. Appending in
// ascending record order is an O(1) tail append that never faults; a write
// for an older record pays a rank and an O(n) insert, and one whose slot
// lies in the paged prefix reads the prefix in first (fault). If that read
// fails, Set returns the page error and leaves the column unchanged.
func (c *MeasureColumn) Set(rec uint32, v float64) error {
	if err := c.fault(rec); err != nil {
		return err
	}
	c.put(rec, v)
	return nil
}

// fault makes rec's slot resident for a write: a slot in the paged prefix
// materializes the column, a tail slot needs nothing.
func (c *MeasureColumn) fault(rec uint32) error {
	if c.prefix == nil {
		return nil
	}
	slot := c.present.Rank(rec) // an insert's slot
	if c.present.Contains(rec) {
		slot-- // a replace's
	}
	if slot >= c.prefix.count {
		return nil
	}
	return c.materialize()
}

// put is Set once rec's slot is resident: a tail append (rec follows every
// record the column holds), or a write fault has made safe. It never faults.
func (c *MeasureColumn) put(rec uint32, v float64) {
	c.size.forget()
	if last, ok := c.present.Maximum(); !ok || rec > last {
		// The only case a growing collection produces: no membership
		// probe, no rank.
		c.present.Add(rec)
		c.tail = append(c.tail, v)
		return
	}
	slot := c.present.Rank(rec) - c.prefixLen()
	if c.present.Contains(rec) {
		c.tail[slot-1] = v
		return
	}
	c.present.Add(rec)
	c.tail = slices.Insert(c.tail, slot, v)
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

// Count returns the number of non-NULL entries: the prefix's values and the
// tail's.
func (c *MeasureColumn) Count() int { return c.prefixLen() + len(c.tail) }

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
// values). For the paged prefix this is deliberately the decoded size, not
// the bytes currently resident: the cost model charges what a fetch logically
// touches, and cache state must not change query costs. Residency is
// reported separately by ResidentValueBytes/EncodedValueBytes.
func (c *MeasureColumn) SizeBytes() int {
	if n, ok := c.size.load(); ok {
		return n
	}
	return c.size.store(c.present.SizeBytes() + 8*c.Count())
}

// optimize rebuilds the presence bitmap in its most compact layouts.
func (c *MeasureColumn) optimize() {
	c.size.forget()
	c.present.Optimize()
}

// validate checks internal invariants; used by tests and loaders. For the
// paged prefix only the cheap structural invariant is checked here — NaN
// rejection happens at encode time (Save) and corruption is caught by the
// snapshot checksum and the hardened block reader.
func (c *MeasureColumn) validate() error {
	if c.present.Cardinality() != c.Count() {
		return fmt.Errorf("colstore: measure column presence/value mismatch: %d vs %d",
			c.present.Cardinality(), c.Count())
	}
	for _, v := range c.tail {
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

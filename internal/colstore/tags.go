package colstore

import (
	"fmt"
	"sort"

	"grove/internal/bitmap"
)

// Record metadata (§3.1): grove stores key=value tags per record as bitmap
// columns — one column per (key, value) pair, exactly like the bitmap
// indexes data warehouses keep on low-cardinality dimension attributes.
// Tags link sub-orders into logical units, carry order types for slicing
// analytical results, and so on; combined with structural answers they stay
// in the bitmap algebra.

// Tag marks record rec with key=value.
func (r *Relation) Tag(rec uint32, key, value string) error {
	if key == "" {
		return fmt.Errorf("colstore: empty tag key")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.numRecords.Load(); rec >= n {
		return fmt.Errorf("colstore: tag on unknown record %d (have %d)", rec, n)
	}
	if r.tags == nil {
		r.tags = make(map[string]map[string]*BitmapColumn)
	}
	byValue, ok := r.tags[key]
	if !ok {
		byValue = make(map[string]*BitmapColumn)
		r.tags[key] = byValue
	}
	col, ok := byValue[value]
	if !ok {
		col = NewBitmapColumn()
		byValue[value] = col
	}
	col.Set(rec)
	r.bumpVersion()
	return nil
}

// FetchTagBitmap reads the bitmap column of key=value, accounting one bitmap
// fetch. Unknown tags yield an empty bitmap.
func (r *Relation) FetchTagBitmap(key, value string) *bitmap.Bitmap {
	col, ok := r.tags[key][value]
	if !ok {
		r.tracker.onBitmapFetch(nil, 0)
		return emptyBitmap
	}
	r.tracker.onBitmapFetch(nil, col.SizeBytes())
	return col.Bits()
}

// TagKeys lists the tag keys stored, sorted.
func (r *Relation) TagKeys() []string {
	out := make([]string, 0, len(r.tags))
	for k := range r.tags {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TagValues lists the values stored under a key, sorted.
func (r *Relation) TagValues(key string) []string {
	byValue := r.tags[key]
	out := make([]string, 0, len(byValue))
	for v := range byValue {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

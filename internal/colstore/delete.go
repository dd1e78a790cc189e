package colstore

import (
	"fmt"

	"grove/internal/bitmap"
)

// Soft deletion. The master relation is append-only — its columns are
// positional — so deletion is logical: deleted record ids are collected in
// one bitmap that query answers subtract. This is the standard
// column-store/Data-Warehouse delete-vector technique; the space cost is one
// bitmap regardless of how many views exist, and views need no maintenance
// on delete.

// Delete marks a record as deleted. Idempotent; reports whether the record
// was live before.
func (r *Relation) Delete(rec uint32) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.numRecords.Load(); rec >= n {
		return false, fmt.Errorf("colstore: delete of unknown record %d (have %d)", rec, n)
	}
	if r.deleted == nil {
		r.deleted = bitmap.New()
	}
	r.bumpVersion()
	return r.deleted.Add(rec), nil
}

// Undelete restores a deleted record; reports whether it was deleted.
func (r *Relation) Undelete(rec uint32) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deleted == nil {
		return false
	}
	r.bumpVersion()
	return r.deleted.Remove(rec)
}

// NumDeleted returns the number of deleted records.
func (r *Relation) NumDeleted() int {
	if r.deleted == nil {
		return 0
	}
	return r.deleted.Cardinality()
}

// MaskDeleted subtracts the deleted records from an answer set. Executors
// call it once per query, after the bitmap conjunction.
func (r *Relation) MaskDeleted(answer *bitmap.Bitmap) *bitmap.Bitmap {
	if r.deleted == nil || r.deleted.IsEmpty() {
		return answer
	}
	return answer.AndNot(r.deleted)
}

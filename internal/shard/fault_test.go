package shard

import (
	"errors"
	"sync/atomic"
	"testing"

	"grove/internal/agg"
	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
)

// failingReads is an fsio.FS whose files fail every positional read once
// fail is set: the page faults of a loaded store's prefixes, and nothing
// else, since loading reads sequentially. fsio.FaultFS injects its faults
// into writes and directory operations, never into reads.
type failingReads struct {
	fsio.FS
	fail atomic.Bool
}

func (f *failingReads) Open(name string) (fsio.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return failingFile{file, &f.fail}, nil
}

type failingFile struct {
	fsio.File
	fail *atomic.Bool
}

func (f failingFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fail.Load() {
		return 0, errors.New("injected read failure")
	}
	return f.File.ReadAt(p, off)
}

// TestAppendEdgeFaultFailureChangesNothing: an append-edge op whose write
// lands inside a loaded column's paged prefix reads the prefix in first.
// When that read fails, the op returns the page error and leaves the shard
// as it was — no edge bit without its measure for a later checkpoint to
// save, no view touched.
func TestAppendEdgeFaultFailureChangesNothing(t *testing.T) {
	c := New(1, 0)
	for i := 0; i < 5; i++ {
		rec := graph.NewRecord()
		if err := rec.SetEdge("A", "B", float64(i)); err != nil {
			t.Fatal(err)
		}
		if i > 0 { // record 0 lacks B→C
			if err := rec.SetEdge("B", "C", float64(10+i)); err != nil {
				t.Fatal(err)
			}
		}
		c.Add(rec)
	}
	ab, bc := c.Registry().ID(graph.E("A", "B")), c.Registry().ID(graph.E("B", "C"))
	if err := c.MaterializeAggViewOn("abc", []colstore.EdgeID{ab, bc}, agg.Sum, ""); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	fs := &failingReads{FS: fsio.OS()}
	loaded, err := LoadFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	rel := loaded.Unit(0).Rel
	version := rel.Version()

	fs.fail.Store(true)
	// B→C is new to record 0 but its column holds records 1–4, and it
	// completes the view's path; A→B replaces record 0's value. Both
	// writes land in a prefix.
	for _, e := range []graph.EdgeKey{graph.E("B", "C"), graph.E("A", "B")} {
		if err := loaded.AppendEdge(0, e.From, e.To, "", 99, true); err == nil {
			t.Fatalf("append-edge %s→%s reported success over a failing disk", e.From, e.To)
		}
	}
	if rel.Version() != version {
		t.Error("a failed append-edge bumped the shard's version")
	}
	if rel.EdgeBitmap(bc).Contains(0) {
		t.Error("record 0 gained B→C without its measure")
	}
	if got := rel.MeasureColumn(bc).Count(); got != 4 {
		t.Errorf("B→C holds %d values, want the 4 it was loaded with", got)
	}
	if v := rel.AggView("abc"); v.Col.Contains(0) || v.Measure.Count() != 4 {
		t.Errorf("view abc took record 0: bit %v, %d values", v.Col.Contains(0), v.Measure.Count())
	}
}

package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
	"grove/internal/wal"
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

// TestRefusedWriteNotRecovered: an op the store refused never reaches the
// log, so recovery cannot bring it back. With the log at SyncAlways and page
// reads failing, an append-edge into a paged prefix is refused; so is a tag
// with an empty key. Neither appends a frame, and the next load replays
// nothing: record 0 still has no B→C.
func TestRefusedWriteNotRecovered(t *testing.T) {
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
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	fs := &failingReads{FS: fsio.OS()}
	live, err := LoadFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AttachWALFS(fs, dir, wal.Config{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}

	fs.fail.Store(true)
	if err := live.AppendEdge(0, "B", "C", "", 99, true); err == nil {
		t.Fatal("append-edge into a prefix reported success over a failing disk")
	}
	if n := live.WALStats().Appends; n != 0 {
		t.Errorf("the refused append-edge appended %d frames", n)
	}
	before := live.WALStats().Appends
	if err := live.Tag(0, "", "v"); err == nil {
		t.Fatal("a tag with an empty key was accepted")
	}
	if n := live.WALStats().Appends - before; n != 0 {
		t.Errorf("the refused tag appended %d frames", n)
	}
	fs.fail.Store(false)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := LoadFS(fsio.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if n := recovered.WALStats().ReplayedOps; n != 0 {
		t.Errorf("recovery replayed %d ops, want 0", n)
	}
	bc, _ := recovered.Registry().Lookup(graph.E("B", "C"))
	if recovered.Unit(0).Rel.EdgeBitmap(bc).Contains(0) {
		t.Error("recovery gave record 0 the refused B→C")
	}
}

// TestRefusedOpsDifferential runs seeded random mutation sequences — appends,
// append-edges (into the paged prefixes too), deletes, undeletes and tags,
// empty keys included — on a loaded store logging at SyncAlways while page
// reads fail at random steps, at 1 and 2 shards. A shadow store loaded from
// the same snapshot takes only the ops the live one acknowledged. After Close
// and a fresh load, the recovered store must equal the shadow: the same
// records, deletions, tags and view contents, and every view equal to its
// recomputation.
//
// The stores are compared by element name, not by registry id: a refused
// append-edge of a new element still takes an id live, and replay never
// assigns it, so later ids may differ (DESIGN.md §14).
func TestRefusedOpsDifferential(t *testing.T) {
	nodes := []string{"A", "B", "C", "D", "E"}
	randomEdge := func(rng *rand.Rand) (string, string) {
		i := rng.Intn(len(nodes) - 1)
		return nodes[i], nodes[i+1+rng.Intn(len(nodes)-1-i)]
	}
	for _, n := range []int{1, 2} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			randomRecord := func() *graph.Record {
				rec := graph.NewRecord()
				for k := 1 + rng.Intn(5); k > 0; k-- {
					from, to := randomEdge(rng)
					if err := rec.SetEdge(from, to, float64(rng.Intn(50))); err != nil {
						t.Fatal(err)
					}
				}
				return rec
			}
			base := New(n, 0)
			for i := 0; i < 16; i++ {
				base.Add(randomRecord())
			}
			reg := base.Registry()
			ab, bc, cd := reg.ID(graph.E("A", "B")), reg.ID(graph.E("B", "C")), reg.ID(graph.E("C", "D"))
			if err := base.MaterializeView("abc", []colstore.EdgeID{ab, bc}); err != nil {
				t.Fatal(err)
			}
			if err := base.MaterializeAggViewOn("bcd", []colstore.EdgeID{bc, cd}, agg.Sum, ""); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := base.Save(dir); err != nil {
				t.Fatal(err)
			}
			fs := &failingReads{FS: fsio.OS()}
			live, err := LoadFS(fs, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := live.AttachWALFS(fs, dir, wal.Config{Policy: wal.SyncAlways}); err != nil {
				t.Fatal(err)
			}
			shadow, err := LoadFS(fsio.OS(), dir)
			if err != nil {
				t.Fatal(err)
			}

			label := fmt.Sprintf("N=%d seed %d", n, seed)
			acked, refused := 0, 0
			for step := 0; step < 80; step++ {
				fs.fail.Store(rng.Intn(6) == 0)
				g := uint32(rng.Intn(live.NumRecords()))
				var err, shadowErr error
				var was, shadowWas bool
				switch op := rng.Intn(10); {
				case op < 2:
					rec := randomRecord()
					_, err = live.Append(rec)
					_, shadowErr = shadow.Append(rec)
				case op < 6:
					from, to := randomEdge(rng)
					if rng.Intn(4) == 0 {
						to = fmt.Sprintf("N%d", step) // an element the registry has never seen
					}
					name := []string{"", "", "cost"}[rng.Intn(3)]
					v, hasValue := float64(rng.Intn(50)), rng.Intn(4) > 0
					if err = live.AppendEdge(g, from, to, name, v, hasValue); err == nil {
						shadowErr = shadow.AppendEdge(g, from, to, name, v, hasValue)
					}
				case op < 7:
					if was, err = live.Delete(g); err == nil {
						shadowWas, shadowErr = shadow.Delete(g)
					}
				case op < 8:
					was, shadowWas = live.Undelete(g), shadow.Undelete(g)
				default:
					key, val := []string{"", "region", "kind"}[rng.Intn(3)], fmt.Sprint(rng.Intn(3))
					if err = live.Tag(g, key, val); err == nil {
						shadowErr = shadow.Tag(g, key, val)
					}
				}
				if err != nil {
					refused++
					continue
				}
				acked++
				if shadowErr != nil || was != shadowWas {
					t.Fatalf("%s step %d: the shadow disagrees with an acknowledged op: err %v, was %v vs %v", label, step, shadowErr, was, shadowWas)
				}
			}
			if refused == 0 {
				t.Fatalf("%s: no op was refused; the sequence tests nothing", label)
			}
			fs.fail.Store(false)
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}

			recovered, err := LoadFS(fsio.OS(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := recovered.WALStats().ReplayedOps; got != int64(acked) {
				t.Errorf("%s: recovery replayed %d ops, %d were acknowledged (%d refused)", label, got, acked, refused)
			}
			if got, want := nameDigest(recovered), nameDigest(shadow); got != want {
				t.Errorf("%s: the recovered store differs from the live one (%d acknowledged, %d refused ops)\n got:\n%s\nwant:\n%s", label, acked, refused, got, want)
			}
			checkViewsRecompute(t, label+" shadow", shadow)
			checkViewsRecompute(t, label+" recovered", recovered)
			recovered.Close()
			shadow.Close()
		}
	}
}

// TestUnencodableOpRefused: an op the log cannot frame — here each names a
// 17 MB string, past the 16 MB frame limit — is refused whole before it
// applies, so the store holds nothing the log lacks: no record id, no
// element, no tag. The log does not latch, the ops after the refused ones
// log as usual, and the recovered store equals a shadow that never saw the
// refused ops.
func TestUnencodableOpRefused(t *testing.T) {
	huge := strings.Repeat("x", 17<<20)
	edge := func(from, to string) *graph.Record {
		rec := graph.NewRecord()
		if err := rec.SetEdge(from, to, 1); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	dir := t.TempDir()
	live, shadow := New(1, 0), New(1, 0)
	live.Add(edge("A", "B"))
	shadow.Add(edge("A", "B"))
	if err := live.AttachWALFS(fsio.OS(), dir, wal.Config{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	if g, err := live.Append(edge("A", huge)); !errors.Is(err, wal.ErrOpTooLarge) || g != math.MaxUint32 {
		t.Fatalf("a record with a 17 MB node name: id %d, err %v", g, err)
	}
	if err := live.AppendEdge(0, huge, "B", "", 1, true); !errors.Is(err, wal.ErrOpTooLarge) {
		t.Fatalf("an append-edge naming a 17 MB node: err %v", err)
	}
	if err := live.Tag(0, "k", huge); !errors.Is(err, wal.ErrOpTooLarge) {
		t.Fatalf("a 17 MB tag value: err %v", err)
	}
	if got := live.NumRecords(); got != 1 {
		t.Fatalf("the refused record was applied: %d records, want 1", got)
	}
	if _, ok := live.Registry().Lookup(graph.E(huge, "B")); ok {
		t.Fatal("the refused append-edge registered its element")
	}
	if err := live.WALError(); err != nil {
		t.Fatalf("a refused op latched the log: %v", err)
	}
	for _, c := range []*Coordinator{live, shadow} {
		g, err := c.Append(edge("B", "C"))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AppendEdge(g, "C", "D", "", 2, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Tag(g, "k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := LoadFS(fsio.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got, want := nameDigest(recovered), nameDigest(shadow); got != want {
		t.Errorf("the recovered store differs from the acknowledged ops\n got:\n%s\nwant:\n%s", got, want)
	}
}

// nameDigest renders c's logical state by element name, never by registry
// id: every record's elements with their default and named measures and its
// deleted flag, the records under every tag, and every view's records and
// values.
func nameDigest(c *Coordinator) string {
	var b strings.Builder
	reg := c.Registry()
	for g := uint32(0); int(g) < c.NumRecords(); g++ {
		s, local, _ := c.Locate(g)
		rel := c.Unit(s).Rel
		var elems []string
		for eid := colstore.EdgeID(0); int(eid) < reg.Len(); eid++ {
			if bm := rel.EdgeBitmap(eid); bm == nil || !bm.Contains(local) {
				continue
			}
			k, _ := reg.Key(eid)
			e := k.From + "→" + k.To
			for _, name := range append([]string{""}, rel.MeasureNames()...) {
				if col := rel.MeasureColumnNamed(eid, name); col != nil {
					if v, ok := col.Get(local); ok {
						e += fmt.Sprintf(" %s=%v", name, v)
					}
				}
			}
			elems = append(elems, e)
		}
		sort.Strings(elems)
		deleted := rel.MaskDeleted(bitmap.FromSlice([]uint32{local})).IsEmpty()
		fmt.Fprintf(&b, "record %d deleted=%v: %s\n", g, deleted, strings.Join(elems, ", "))
	}
	for _, key := range c.TagKeys() {
		for _, val := range c.TagValues(key) {
			fmt.Fprintf(&b, "tag %s=%s: %v\n", key, val, c.TaggedWith(key, val).ToSlice())
		}
	}
	for s := 0; s < c.NumShards(); s++ {
		rel := c.Unit(s).Rel
		for _, v := range rel.Views() {
			fmt.Fprintf(&b, "shard %d view %s: %v\n", s, v.Name, v.Col.Bits().ToSlice())
		}
		for _, v := range rel.AggViews() {
			fmt.Fprintf(&b, "shard %d view %s: %v %s\n", s, v.Name, v.Col.Bits().ToSlice(), columnString(v.Measure))
		}
	}
	return b.String()
}

// columnString renders a measure column as its rec=value pairs.
func columnString(m *colstore.MeasureColumn) string {
	var b strings.Builder
	m.ForEach(func(rec uint32, v float64) bool {
		fmt.Fprintf(&b, "%d=%v ", rec, v)
		return true
	})
	return b.String()
}

// checkViewsRecompute materializes every view of c again from the base
// columns and requires the maintained view to hold the same records and
// values.
func checkViewsRecompute(t *testing.T, label string, c *Coordinator) {
	t.Helper()
	for s := 0; s < c.NumShards(); s++ {
		rel := c.Unit(s).Rel
		for _, v := range rel.Views() {
			re, err := rel.MaterializeView("re-"+v.Name, v.Edges)
			if err != nil {
				t.Fatal(err)
			}
			if !re.Col.Bits().Equals(v.Col.Bits()) {
				t.Errorf("%s shard %d: view %s holds %v, its recomputation %v", label, s, v.Name, v.Col.Bits().ToSlice(), re.Col.Bits().ToSlice())
			}
		}
		for _, v := range rel.AggViews() {
			fn, _ := agg.ByName(v.Func)
			re, err := rel.MaterializeAggViewOn("re-"+v.Name, v.Path, fn, v.MeasureName)
			if err != nil {
				t.Fatal(err)
			}
			if !re.Col.Bits().Equals(v.Col.Bits()) || columnString(re.Measure) != columnString(v.Measure) {
				t.Errorf("%s shard %d: view %s holds %s, its recomputation %s", label, s, v.Name, columnString(v.Measure), columnString(re.Measure))
			}
		}
	}
}

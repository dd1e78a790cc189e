package grove

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/shard"
	"grove/internal/wal"
)

// --- harness -----------------------------------------------------------------

// copyTree clones a store directory so each sweep iteration crashes a fresh
// copy of the same starting state.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// treeBytes reads every file under dir, keyed by its path relative to dir.
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(p)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTree fails the test unless two treeBytes snapshots hold the same file
// set with the same bytes.
func sameTree(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for p, b := range want {
		if g, ok := got[p]; !ok {
			t.Errorf("%s: file %s missing", what, p)
		} else if g != b {
			t.Errorf("%s: file %s differs", what, p)
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			t.Errorf("%s: unexpected file %s", what, p)
		}
	}
}

// recordString canonicalizes one record: elements in Elements() order with
// default and named measures spelled out.
func recordString(rec *Record) string {
	var b strings.Builder
	names := rec.MeasureNames()
	for _, k := range rec.Elements() {
		fmt.Fprintf(&b, "[%s>%s", k.From, k.To)
		if m := rec.Measure(k); m.Valid {
			fmt.Fprintf(&b, " =%g", m.Value)
		}
		for _, name := range names {
			if m := rec.MeasureNamed(k, name); m.Valid {
				fmt.Fprintf(&b, " %s=%g", name, m.Value)
			}
		}
		b.WriteString("]")
	}
	return b.String()
}

// stateDigest canonicalizes a store's full logical state — records, deletion
// flags, tags, and materialized view contents (bitmaps AND pre-aggregated
// measures) — into a comparable string. Ids are global, so the digest is
// shard-count invariant: a 3-shard store and a single-shard store holding the
// same collection digest identically.
func stateDigest(t *testing.T, st *Store) string {
	t.Helper()
	var b strings.Builder
	n := st.NumRecords()
	ns := uint32(st.Stats().Shards)
	fmt.Fprintf(&b, "records=%d\n", n)
	for id := uint32(0); int(id) < n; id++ {
		u := st.coord.Unit(int(id % ns))
		del := ""
		if u.Rel.MaskDeleted(bitmap.FromSlice([]uint32{id / ns})).IsEmpty() { // read as a query does
			del = " DELETED"
		}
		rec, err := st.GetRecord(id)
		if err != nil {
			t.Fatalf("digest: GetRecord(%d): %v", id, err)
		}
		fmt.Fprintf(&b, "rec %d%s: %s\n", id, del, recordString(rec))
	}
	for _, key := range st.coord.TagKeys() {
		vals := map[string]bool{}
		for i := 0; i < int(ns); i++ {
			for _, v := range st.coord.Unit(i).Rel.TagValues(key) {
				vals[v] = true
			}
		}
		sorted := make([]string, 0, len(vals))
		for v := range vals {
			sorted = append(sorted, v)
		}
		sort.Strings(sorted)
		for _, v := range sorted {
			var ids []uint32
			st.TaggedWith(key, v).Each(func(rec uint32) bool {
				ids = append(ids, rec)
				return true
			})
			fmt.Fprintf(&b, "tag %s=%s: %v\n", key, v, ids)
		}
	}
	// Views: union the per-shard bitmaps into global-id sets; aggregate views
	// also record each member's pre-aggregated measure.
	gviews := map[string][]uint32{}
	aviews := map[string]map[uint32]float64{}
	for i := 0; i < int(ns); i++ {
		rel := st.coord.Unit(i).Rel
		rel.BeginRead()
		for _, v := range rel.Views() {
			v.Col.Bits().Each(func(local uint32) bool {
				gviews[v.Name] = append(gviews[v.Name], local*ns+uint32(i))
				return true
			})
		}
		for _, av := range rel.AggViews() {
			m := aviews[av.Name]
			if m == nil {
				m = map[uint32]float64{}
				aviews[av.Name] = m
			}
			av.Col.Bits().Each(func(local uint32) bool {
				if val, ok := av.Measure.Get(local); ok {
					m[local*ns+uint32(i)] = val
				} else {
					m[local*ns+uint32(i)] = -1e308 // member without a value
				}
				return true
			})
		}
		rel.EndRead()
	}
	for _, name := range sortedKeys(gviews) {
		ids := gviews[name]
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		fmt.Fprintf(&b, "view %s: %v\n", name, ids)
	}
	for _, name := range sortedKeysF(aviews) {
		m := aviews[name]
		ids := make([]uint32, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		fmt.Fprintf(&b, "aggview %s:", name)
		for _, id := range ids {
			fmt.Fprintf(&b, " %d=%g", id, m[id])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func sortedKeys(m map[string][]uint32) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysF(m map[string]map[uint32]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// buildWALBase saves the sweep's starting store (fillWALBase) to dir.
func buildWALBase(t *testing.T, shards int, dir string) {
	t.Helper()
	st := NewSharded(shards)
	fillWALBase(t, st)
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
}

// fillWALBase loads the sweeps' starting state into st: four records (one
// already inside the view, others one edge short of it), a graph view and an
// aggregate view over the path a→b→c.
func fillWALBase(t *testing.T, st *Store) {
	t.Helper()
	r0 := NewRecord()
	mustSet(t, r0.SetEdge("a", "b", 1))
	r1 := NewRecord()
	mustSet(t, r1.SetEdge("a", "b", 2))
	mustSet(t, r1.SetEdge("b", "c", 3))
	r2 := NewRecord()
	mustSet(t, r2.SetEdge("x", "y", 5))
	r3 := NewRecord()
	mustSet(t, r3.SetEdgeNamed("a", "b", "cost", 2))
	for _, r := range []*Record{r0, r1, r2, r3} {
		st.Add(r)
	}
	if err := st.MaterializeView("v", PathOf("a", "b", "c").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if err := st.MaterializeAggViewPath("sv", Sum, "", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
}

func mustSet(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// walOp is one mutation of the sweep's op sequence, applied through the
// store's durable mutators.
type walOp struct {
	name  string
	apply func(st *Store) error
}

// walOps is the sweep's op sequence: every WAL op kind, including edge
// appends that flip view membership (exercising incremental maintenance on
// both the live and the replay path), a delete/undelete pair, and tags.
func walOps() []walOp {
	return []walOp{
		{"append-4", func(st *Store) error {
			r := NewRecord()
			if err := r.SetEdge("a", "b", 4); err != nil {
				return err
			}
			if err := r.SetEdge("d", "e", 1); err != nil {
				return err
			}
			_, err := st.Append(r)
			return err
		}},
		{"append-5", func(st *Store) error {
			r := NewRecord()
			if err := r.SetEdge("a", "b", 1); err != nil {
				return err
			}
			if err := r.SetEdge("b", "c", 1); err != nil {
				return err
			}
			if err := r.SetEdgeNamed("b", "c", "cost", 3); err != nil {
				return err
			}
			_, err := st.Append(r)
			return err
		}},
		{"edge-completes-0", func(st *Store) error { return st.AppendEdge(0, "b", "c", "", 5) }},
		{"edge-named-3", func(st *Store) error { return st.AppendEdge(3, "b", "c", "cost", 7) }},
		{"bare-edge-2", func(st *Store) error { return st.AppendBareEdge(2, "y", "z") }},
		{"tag-0", func(st *Store) error { return st.Tag(0, "type", "hot") }},
		{"delete-1", func(st *Store) error {
			_, err := st.Delete(1)
			return err
		}},
		{"append-6", func(st *Store) error {
			r := NewRecord()
			if err := r.SetEdge("a", "b", 2); err != nil {
				return err
			}
			if err := r.SetEdge("b", "c", 2); err != nil {
				return err
			}
			_, err := st.Append(r)
			return err
		}},
		{"undelete-1", func(st *Store) error {
			if !st.Undelete(1) {
				return fmt.Errorf("undelete failed")
			}
			return nil
		}},
		{"tag-4", func(st *Store) error { return st.Tag(4, "kind", "cold") }},
		{"edge-completes-4", func(st *Store) error { return st.AppendEdge(4, "b", "c", "", 1) }},
		{"delete-2", func(st *Store) error {
			_, err := st.Delete(2)
			return err
		}},
	}
}

// modelDigests loads the base store and applies the op sequence WITHOUT a
// write-ahead log, digesting after every op: digests[p] is the one true state
// after the first p ops. Crash recovery must always land on one of these.
func modelDigests(t *testing.T, baseDir string, ops []walOp) []string {
	t.Helper()
	st, err := LoadStore(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	digests := []string{stateDigest(t, st)}
	for _, op := range ops {
		if err := op.apply(st); err != nil {
			t.Fatalf("model op %s: %v", op.name, err)
		}
		digests = append(digests, stateDigest(t, st))
	}
	return digests
}

// mustLoad loads a store or fails the test.
func mustLoad(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runWALSweep is the shared body of the single-shard and sharded fault
// sweeps: crash WAL-logged ingest at every fsio operation (both torn modes)
// and assert recovery always lands on a model prefix at or past the
// acknowledged op count.
func runWALSweep(t *testing.T, shards int, baseDir string, digests []string, ops []walOp) {
	t.Helper()
	cfg := WALConfig{Policy: SyncAlways}

	// Unarmed counting run measures the total fsio op count of attach+ingest.
	countDir := t.TempDir()
	copyTree(t, baseDir, countDir)
	st := mustLoad(t, countDir)
	fault := fsio.NewFaultFS(fsio.OS())
	fault.FailAt(0)
	if err := st.coord.AttachWALFS(fault, countDir, cfg); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := op.apply(st); err != nil {
			t.Fatalf("counting run op %s: %v", op.name, err)
		}
	}
	total := fault.Ops()
	if total < int64(len(ops)) {
		t.Fatalf("suspiciously few fsio ops: %d", total)
	}
	// The unfaulted run must recover to exactly the final model state.
	if got := stateDigest(t, mustLoad(t, countDir)); got != digests[len(ops)] {
		t.Fatalf("clean WAL recovery diverged from the model:\n%s\nwant:\n%s", got, digests[len(ops)])
	}

	for _, torn := range []bool{false, true} {
		sawBase, sawFull := false, false
		for k := int64(1); k <= total; k++ {
			dir := t.TempDir()
			copyTree(t, baseDir, dir)
			st := mustLoad(t, dir)
			fault := fsio.NewFaultFS(fsio.OS())
			fault.SetTornWrites(torn)
			fault.FailAt(k)

			// acked counts ops whose durable append was acknowledged: under
			// SyncAlways every one of them MUST survive the crash.
			acked := 0
			if err := st.coord.AttachWALFS(fault, dir, cfg); err == nil {
				for _, op := range ops {
					err := op.apply(st)
					if err == nil && st.Stats().Err == nil {
						acked++
					}
				}
			} else {
				// Attach crashed: ops proceed un-logged on the in-memory
				// store; the directory must still recover to the base state.
				for _, op := range ops {
					op.apply(st) //nolint:errcheck // in-memory application; disk state is what the sweep asserts
				}
			}
			opLog := fault.OpLog()

			rec, err := LoadStore(dir)
			if err != nil {
				t.Fatalf("torn=%v k=%d: recovery load failed: %v\nops:\n%s",
					torn, k, err, strings.Join(opLog, "\n"))
			}
			got := stateDigest(t, rec)
			matched := -1
			for p := acked; p < len(digests); p++ {
				if got == digests[p] {
					matched = p
					break
				}
			}
			if matched == -1 {
				// Not a prefix ≥ acked: either an acked op was lost, a
				// partial op applied, or (sharded) the cut mixed LSNs.
				for p := 0; p < acked; p++ {
					if got == digests[p] {
						t.Fatalf("torn=%v k=%d: recovered prefix %d but %d ops were fsync-acknowledged\nops:\n%s",
							torn, k, p, acked, strings.Join(opLog, "\n"))
					}
				}
				t.Fatalf("torn=%v k=%d: recovered state matches NO model prefix (acked=%d)\ngot:\n%s\nops:\n%s",
					torn, k, acked, got, strings.Join(opLog, "\n"))
			}
			if matched == 0 {
				sawBase = true
			}
			if matched == len(ops) {
				sawFull = true
			}
		}
		// The sweep must span the spectrum: earliest crashes keep the base
		// state, latest ones recover every op.
		if !sawBase || !sawFull {
			t.Fatalf("torn=%v: sweep did not span base→full (base=%v full=%v)", torn, sawBase, sawFull)
		}
	}
	_ = shards
}

// --- the sweeps --------------------------------------------------------------

// TestWALFaultSweep is the WAL durability claim, tested exhaustively on a
// single-shard store: crash the logged ingest at every fsio operation (plain
// and torn-write modes) and assert Load afterwards always yields a clean
// prefix of the op sequence — every fsync-acknowledged op present, no partial
// op ever applied, views included.
func TestWALFaultSweep(t *testing.T) {
	base := t.TempDir()
	buildWALBase(t, 1, base)
	ops := walOps()
	digests := modelDigests(t, base, ops)
	for p := 1; p < len(digests); p++ {
		if digests[p] == digests[p-1] {
			t.Fatalf("op %s did not change the digest — the sweep would not detect losing it", ops[p-1].name)
		}
	}
	runWALSweep(t, 1, base, digests, ops)
}

// TestShardedWALFaultSweep repeats the sweep on a 3-shard store, comparing
// recovered states against the SINGLE-shard model digests: recovery must be a
// prefix of the op sequence AND bit-identical to what a single-shard store
// holds after the same prefix. A cross-shard cut mixing per-shard LSNs would
// match no single-shard prefix and fail loudly.
func TestShardedWALFaultSweep(t *testing.T) {
	base1 := t.TempDir()
	buildWALBase(t, 1, base1)
	ops := walOps()
	digests := modelDigests(t, base1, ops)

	base3 := t.TempDir()
	buildWALBase(t, 3, base3)
	if got := stateDigest(t, mustLoad(t, base3)); got != digests[0] {
		t.Fatalf("3-shard base digests differently from 1-shard base:\n%s\nvs:\n%s", got, digests[0])
	}
	runWALSweep(t, 3, base3, digests, ops)
}

// TestWALCheckpointFaultSweep crashes Save-with-WAL (the checkpoint) at every
// fsio operation: since a checkpoint only reorganizes durability (folds the
// log into a snapshot) the recovered logical state must be IDENTICAL at every
// crash point — before the commit the old snapshot plus the old log carries
// it, after the commit the new snapshot alone does, and the log truncation
// happening strictly after the commit point is what keeps the middle safe.
func TestWALCheckpointFaultSweep(t *testing.T) {
	// pre = base + a synced WAL carrying the full op sequence, un-checkpointed.
	pre := t.TempDir()
	buildWALBase(t, 1, pre)
	st := mustLoad(t, pre)
	if err := st.EnableWAL(pre, WALConfig{Policy: SyncAlways}); err != nil {
		t.Fatal(err)
	}
	for _, op := range walOps() {
		if err := op.apply(st); err != nil {
			t.Fatalf("op %s: %v", op.name, err)
		}
	}
	if err := st.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	want := stateDigest(t, st)
	preGen := colstore.CurrentGeneration(pre)

	cfg := WALConfig{Policy: SyncAlways}
	countDir := t.TempDir()
	copyTree(t, pre, countDir)
	st = mustLoad(t, countDir)
	fault := fsio.NewFaultFS(fsio.OS())
	fault.FailAt(0)
	if err := st.coord.AttachWALFS(fault, countDir, cfg); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(countDir); err != nil { // routes to Checkpoint
		t.Fatal(err)
	}
	total := fault.Ops()
	if got := stateDigest(t, mustLoad(t, countDir)); got != want {
		t.Fatalf("clean checkpoint changed the logical state:\n%s\nwant:\n%s", got, want)
	}
	// The clean checkpoint must truncate: the new log is empty and pinned to
	// the new generation.
	infos, err := InspectWAL(countDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Ops != 0 || infos[0].Gen == preGen {
		t.Fatalf("post-checkpoint log = %+v (pre gen %s)", infos, preGen)
	}

	for _, torn := range []bool{false, true} {
		sawOld, sawNew := false, false
		for k := int64(1); k <= total; k++ {
			dir := t.TempDir()
			copyTree(t, pre, dir)
			st := mustLoad(t, dir)
			fault := fsio.NewFaultFS(fsio.OS())
			fault.SetTornWrites(torn)
			fault.FailAt(k)
			if err := st.coord.AttachWALFS(fault, dir, cfg); err == nil {
				if err := st.Save(dir); err == nil {
					t.Fatalf("torn=%v k=%d: injected fault did not surface from checkpoint", torn, k)
				}
			}
			opLog := fault.OpLog()
			rec, err := LoadStore(dir)
			if err != nil {
				t.Fatalf("torn=%v k=%d: load after crashed checkpoint failed: %v\nops:\n%s",
					torn, k, err, strings.Join(opLog, "\n"))
			}
			if got := stateDigest(t, rec); got != want {
				t.Fatalf("torn=%v k=%d: crashed checkpoint changed the logical state\ngot:\n%s\nops:\n%s",
					torn, k, got, strings.Join(opLog, "\n"))
			}
			if colstore.CurrentGeneration(dir) == preGen {
				sawOld = true
			} else {
				sawNew = true
			}
		}
		if !sawOld || !sawNew {
			t.Fatalf("torn=%v: checkpoint sweep did not cross the commit point (old=%v new=%v)", torn, sawOld, sawNew)
		}
	}
}

// --- targeted recovery behaviors ---------------------------------------------

// TestOpenDurableLifecycle: create → append durably → reopen replays → save
// checkpoints → reopen again finds the checkpointed state with an empty log.
func TestOpenDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDurable(dir, WALConfig{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !st.WALStats().Enabled {
		t.Fatal("OpenDurable did not enable WAL")
	}
	r := NewRecord()
	mustSet(t, r.SetEdge("a", "b", 1))
	id, err := st.Append(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEdge(id, "b", "c", "", 2); err != nil {
		t.Fatal(err)
	}

	// Reopen without ever snapshotting: the log alone must carry the state.
	st2, err := OpenDurable(dir, WALConfig{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumRecords() != 1 {
		t.Fatalf("replayed records = %d", st2.NumRecords())
	}
	if ws := st2.WALStats(); ws.ReplayedOps != 2 {
		t.Fatalf("replayed ops = %d, want 2", ws.ReplayedOps)
	}
	got, err := st2.GetRecord(id)
	if err != nil {
		t.Fatal(err)
	}
	if m := got.Measure(EdgeKey{From: "b", To: "c"}); !m.Valid || m.Value != 2 {
		t.Fatalf("appended edge lost: %+v", m)
	}

	// Checkpoint folds the log away; the next open replays nothing.
	if err := st2.Save(dir); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenDurable(dir, WALConfig{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if ws := st3.WALStats(); ws.ReplayedOps != 0 || st3.NumRecords() != 1 {
		t.Fatalf("post-checkpoint open: %+v, records %d", ws, st3.NumRecords())
	}
}

// TestShardedLoadManifestFallbacks: a damaged SHARDS.json fails the load with
// a clean error and leaves the write-ahead logs untouched — recovery tooling
// still has everything.
func TestShardedLoadManifestFallbacks(t *testing.T) {
	src := t.TempDir()
	buildWALBase(t, 3, src)
	st := mustLoad(t, src)
	if err := st.EnableWAL(src, WALConfig{Policy: SyncAlways}); err != nil {
		t.Fatal(err)
	}
	for _, op := range walOps()[:4] {
		if err := op.apply(st); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	if err := st.SyncWAL(); err != nil {
		t.Fatal(err)
	}

	// walBytes snapshots every log file byte-for-byte, found by layout (not
	// via the manifest — the whole point is the manifest may be gone).
	walBytes := func(dir string) map[string][]byte {
		paths, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(dir, p)
			if err != nil {
				t.Fatal(err)
			}
			out[rel] = b
		}
		if len(out) != 3 {
			t.Fatalf("expected 3 shard logs, found %v", out)
		}
		return out
	}

	for _, tc := range []struct {
		name   string
		mutate func(dir string)
	}{
		{"missing-manifest", func(dir string) {
			if err := os.Remove(filepath.Join(dir, "SHARDS.json")); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-manifest", func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, "SHARDS.json"), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		dir := t.TempDir()
		copyTree(t, src, dir)
		before := walBytes(dir)
		tc.mutate(dir)
		if _, err := LoadStore(dir); err == nil {
			t.Fatalf("%s: load succeeded on a damaged manifest", tc.name)
		}
		after := walBytes(dir)
		if len(after) != len(before) {
			t.Fatalf("%s: WAL file set changed", tc.name)
		}
		for p, b := range before {
			if string(after[p]) != string(b) {
				t.Fatalf("%s: failed load modified WAL %s", tc.name, p)
			}
		}
	}
}

// TestWALGenMismatchSkipped: a log pinned to a generation other than the
// loaded snapshot's is dead weight — Load must succeed, skip it, count the
// skip, and never apply its ops.
func TestWALGenMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	buildWALBase(t, 1, dir)

	// Forge a log pinned to a generation this store never had, carrying a
	// delete that must NOT apply.
	l, err := wal.Create(fsio.OS(), filepath.Join(dir, wal.FileName), 0, "gen-999999", 1, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Op{Kind: wal.OpDelete, Rec: 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st := mustLoad(t, dir)
	ws := st.WALStats()
	if ws.ReplayedOps != 0 || ws.SkippedLogs != 1 {
		t.Fatalf("stats = %+v, want 0 replayed / 1 skipped", ws)
	}
	if st.Stats().Deleted != 0 {
		t.Fatal("a stale-generation log's delete was applied")
	}
	// The stale log survives on disk for inspection.
	infos, err := InspectWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Gen != "gen-999999" || infos[0].Ops != 1 {
		t.Fatalf("inspect = %+v", infos)
	}
}

// TestIncrementalViewDifferential is the view-maintenance claim: after live
// appends/edges/deletes AND after crash-replay of the same ops, every view
// bitmap is bit-for-bit identical to one rebuilt from scratch on the final
// records, and every aggregate view's pre-aggregated measures match.
func TestIncrementalViewDifferential(t *testing.T) {
	dir := t.TempDir()
	buildWALBase(t, 1, dir)
	live := mustLoad(t, dir)
	if err := live.EnableWAL(dir, WALConfig{Policy: SyncAlways}); err != nil {
		t.Fatal(err)
	}
	for _, op := range walOps() {
		if err := op.apply(live); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}

	// replayed = crash now, recover from snapshot + log. Its views were
	// maintained incrementally by the replay path.
	if err := live.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	replayed := mustLoad(t, dir)

	// rebuilt = a fresh store over the FINAL record contents with the views
	// materialized from scratch (then the final deletion set applied).
	rebuilt := Open()
	for id := uint32(0); int(id) < live.NumRecords(); id++ {
		rec, err := live.GetRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := rebuilt.Add(rec); got != id {
			t.Fatalf("rebuilt id %d != %d", got, id)
		}
	}
	if err := rebuilt.MaterializeView("v", PathOf("a", "b", "c").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.MaterializeAggViewPath("sv", Sum, "", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.Delete(2); err != nil {
		t.Fatal(err)
	}

	for _, cmp := range []struct {
		name string
		st   *Store
	}{{"live-incremental", live}, {"crash-replayed", replayed}} {
		rel := cmp.st.rel
		for _, v := range rel.Views() {
			var ref *colstore.GraphView
			for _, rv := range rebuilt.rel.Views() {
				if rv.Name == v.Name {
					ref = rv
				}
			}
			if ref == nil {
				t.Fatalf("%s: view %s missing from rebuild", cmp.name, v.Name)
			}
			if !v.Col.Bits().Equals(ref.Col.Bits()) {
				t.Fatalf("%s: view %s bitmap differs from scratch rebuild", cmp.name, v.Name)
			}
		}
		for _, av := range rel.AggViews() {
			var ref *colstore.AggregateView
			for _, rv := range rebuilt.rel.AggViews() {
				if rv.Name == av.Name {
					ref = rv
				}
			}
			if ref == nil {
				t.Fatalf("%s: agg view %s missing from rebuild", cmp.name, av.Name)
			}
			if !av.Col.Bits().Equals(ref.Col.Bits()) {
				t.Fatalf("%s: agg view %s bitmap differs from scratch rebuild", cmp.name, av.Name)
			}
			av.Col.Bits().Each(func(rec uint32) bool {
				got, gok := av.Measure.Get(rec)
				want, wok := ref.Measure.Get(rec)
				if gok != wok || got != want {
					t.Fatalf("%s: agg view %s rec %d = %v/%v, want %v/%v",
						cmp.name, av.Name, rec, got, gok, want, wok)
				}
				return true
			})
		}
	}
	// And the two maintained stores agree with each other completely.
	if stateDigest(t, live) != stateDigest(t, replayed) {
		t.Fatal("live and crash-replayed stores digest differently")
	}
}

// --- one durability path -------------------------------------------------------

// TestOneDurabilityPath drives the same store twice for every shard count ×
// WAL setting — once committed through the facade (Store.Save, which
// checkpoints under WAL), once through the coordinator's own entry points
// (SaveFS / Checkpoint) — and requires one protocol behind both: the two
// directories hold the same files with the same bytes, each loads through
// grove.LoadStore AND shard.LoadFS to the live state, and with a log attached
// the five op kinds replayed from it digest exactly as they did live.
func TestOneDurabilityPath(t *testing.T) {
	cfg := WALConfig{Policy: SyncAlways}
	for _, n := range []int{1, 3} {
		for _, walOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/wal=%v", n, walOn), func(t *testing.T) {
				// drive runs the whole lifecycle on one store: base state, a
				// first cut (so the views are in the snapshot), every op kind
				// live, then the final cut. It returns the live digest.
				drive := func(dir string, enableWAL func(*Store) error, commit func(*Store) error) string {
					st := NewSharded(n)
					defer st.Close()
					if walOn {
						if err := enableWAL(st); err != nil {
							t.Fatal(err)
						}
					}
					fillWALBase(t, st)
					if err := commit(st); err != nil {
						t.Fatal(err)
					}
					for _, op := range walOps() {
						if err := op.apply(st); err != nil {
							t.Fatalf("%s: %v", op.name, err)
						}
					}
					live := stateDigest(t, st)
					if walOn {
						// Crash here: snapshot + log must replay to the live state.
						if err := st.SyncWAL(); err != nil {
							t.Fatal(err)
						}
						replayed := mustLoad(t, dir)
						if ws := replayed.WALStats(); ws.ReplayedOps != int64(len(walOps())) {
							t.Fatalf("replayed %d ops, want %d", ws.ReplayedOps, len(walOps()))
						}
						if got := stateDigest(t, replayed); got != live {
							t.Fatalf("replay diverged from live:\n%s\nwant:\n%s", got, live)
						}
					}
					if err := commit(st); err != nil {
						t.Fatal(err)
					}
					return live
				}

				facadeDir := filepath.Join(t.TempDir(), "store")
				live := drive(facadeDir,
					func(st *Store) error { return st.EnableWAL(facadeDir, cfg) },
					func(st *Store) error { return st.Save(facadeDir) })
				coordDir := filepath.Join(t.TempDir(), "store")
				coordLive := drive(coordDir,
					func(st *Store) error { return st.coord.AttachWALFS(fsio.OS(), coordDir, cfg) },
					func(st *Store) error {
						if walOn {
							return st.coord.Checkpoint()
						}
						return st.coord.SaveFS(fsio.OS(), coordDir)
					})
				if coordLive != live {
					t.Fatal("the two drives diverged before any save")
				}

				sameTree(t, "coordinator vs facade directory", treeBytes(t, coordDir), treeBytes(t, facadeDir))
				for _, dir := range []string{facadeDir, coordDir} {
					if got := stateDigest(t, mustLoad(t, dir)); got != live {
						t.Errorf("LoadStore(%s) diverged from live:\n%s\nwant:\n%s", dir, got, live)
					}
					co, err := shard.LoadFS(fsio.OS(), dir)
					if err != nil {
						t.Fatalf("shard.LoadFS(%s): %v", dir, err)
					}
					if got := stateDigest(t, newStore(co, options{})); got != live {
						t.Errorf("shard.LoadFS(%s) diverged from live:\n%s\nwant:\n%s", dir, got, live)
					}
				}
			})
		}
	}
}

// TestShadowedSaveRefused: committing a single-shard cut into a directory
// that holds a sharded store used to succeed and then be shadowed — LoadStore
// follows SHARDS.json first and kept answering from the stale sharded cut.
// Save and EnableWAL (whose bootstrap is a checkpoint) must refuse with
// ErrShadowedSave before touching the directory.
func TestShadowedSaveRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit func(st *Store, dir string) error
	}{
		{"save", func(st *Store, dir string) error { return st.Save(dir) }},
		{"enable-wal", func(st *Store, dir string) error {
			if err := st.EnableWAL(dir, WALConfig{Policy: SyncAlways}); err != nil {
				return err
			}
			return st.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildWALBase(t, 2, dir)
			before := treeBytes(t, dir)

			st := Open()
			r := NewRecord()
			mustSet(t, r.SetEdge("p", "q", 1))
			st.Add(r)
			if err := tc.commit(st, dir); !errors.Is(err, ErrShadowedSave) {
				t.Fatalf("err = %v, want ErrShadowedSave", err)
			}
			sameTree(t, "refused save touched the directory", treeBytes(t, dir), before)
			if got := mustLoad(t, dir); got.Stats().Shards != 2 || got.NumRecords() != 4 {
				t.Fatalf("directory now loads as shards=%d records=%d", got.Stats().Shards, got.NumRecords())
			}
			// The same store commits fine into a directory of its own.
			own := filepath.Join(t.TempDir(), "own")
			if err := st.Save(own); err != nil {
				t.Fatal(err)
			}
			if got := mustLoad(t, own); got.Stats().Shards != 1 || got.NumRecords() != 1 {
				t.Fatalf("own directory loads as shards=%d records=%d", got.Stats().Shards, got.NumRecords())
			}
		})
	}
}

// TestStatsErrLabelsItsSource: a latched write-ahead log failure surfaces in
// Stats().Err, labelled with its source, while the store keeps serving.
func TestStatsErrLabelsItsSource(t *testing.T) {
	st := Open()
	loadSCMOrders(t, st)
	if err := st.Stats().Err; err != nil {
		t.Fatalf("healthy store: Err = %v", err)
	}
	fault := fsio.NewFaultFS(fsio.OS())
	if err := st.coord.AttachWALFS(fault, t.TempDir(), WALConfig{Policy: SyncAlways}); err != nil {
		t.Fatal(err)
	}
	fault.FailAt(1)
	rec := NewRecord()
	if err := rec.SetEdge("A", "D", 1); err != nil {
		t.Fatal(err)
	}
	st.Add(rec)
	err := st.Stats().Err
	if err == nil || !strings.HasPrefix(err.Error(), "write-ahead log: ") {
		t.Fatalf("Err = %v, want the log failure labelled with its source", err)
	}
	if _, err := st.Match(PathOf("A", "D").ToGraph()); err != nil {
		t.Fatalf("store stopped serving after the log failed: %v", err)
	}
}

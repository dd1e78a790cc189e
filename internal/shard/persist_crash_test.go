package shard

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grove/internal/fsio"
	"grove/internal/graph"
)

// buildOldCoordinator deterministically builds the sweep's "old" committed
// state: 3 shards, 9 records, a tag and a deletion, so the state bytes
// exercise every column family.
func buildOldCoordinator(t testing.TB) *Coordinator {
	t.Helper()
	c := New(3, 0)
	for i := 0; i < 9; i++ {
		rec := graph.NewRecord()
		if err := rec.SetEdge("A", "B", float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := rec.SetEdge("B", "C", float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
		c.Add(rec)
	}
	if err := c.Tag(4, "type", "rush"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(7); err != nil {
		t.Fatal(err)
	}
	return c
}

// mutateCoordinator advances old state to the sweep's "new" state: records
// land on every shard and a view materializes everywhere, so each shard's
// snapshot genuinely changes.
func mutateCoordinator(t testing.TB, c *Coordinator) {
	t.Helper()
	for i := 0; i < 6; i++ {
		rec := graph.NewRecord()
		if err := rec.SetEdge("C", "D", float64(100+i)); err != nil {
			t.Fatal(err)
		}
		c.Add(rec)
	}
	if err := c.MaterializeView("v", c.Registry().IDs([]graph.EdgeKey{graph.E("A", "B")})); err != nil {
		t.Fatal(err)
	}
}

// stateBytes saves c into a fresh directory and concatenates every shard's
// pinned-generation snapshot files. Saves are deterministic, so two
// coordinators with equal record state produce equal bytes. The registry is
// deliberately excluded: it is append-only and committed before the shard
// cut, so a crashed save legitimately leaves a newer registry alongside the
// old record state (extra registered keys map to ids no old record uses).
func stateBytes(t testing.TB, c *Coordinator) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := readShardsManifest(fsio.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	appendFile := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		buf = append(buf, 0)
	}
	for i := 0; i < m.NumShards; i++ {
		snap := filepath.Join(shardDir(dir, i, false), m.Generations[i])
		appendFile(filepath.Join(snap, "manifest.json"))
		appendFile(filepath.Join(snap, "data.bin"))
	}
	return buf
}

// TestShardedSaveFaultSweep crashes a coordinated save at every single I/O
// operation — registry write, each shard's snapshot sequence, the SHARDS.json
// commit — with and without torn writes, and asserts that Load afterwards
// reconstructs the complete old cross-shard cut or the complete new one,
// bit-exactly: never an error, never a cut mixing shards from both.
//
// Snapshot retention is squeezed to 1 so the sweep also proves the GC
// protection: without pinning the manifest's generations, a shard whose save
// completed before the crash would collect the old generation the durable
// manifest still points at.
func TestShardedSaveFaultSweep(t *testing.T) {
	old := buildOldCoordinator(t)
	refOld := stateBytes(t, old)
	{
		probe := buildOldCoordinator(t)
		mutateCoordinator(t, probe)
		refNew := stateBytes(t, probe)
		if bytes.Equal(refOld, refNew) {
			t.Fatal("fixtures must differ for the sweep to mean anything")
		}
	}

	// One unarmed run counts the save's total operations T; the sweep then
	// crashes at every k in [1, T]. Each k rebuilds the coordinator and the
	// seeded directory from scratch, so the op sequence is identical.
	fault := fsio.NewFaultFS(fsio.OS())
	runSave := func(k int64, torn bool) (dir string, ops int64, opLog []string, saveErr error) {
		dir = t.TempDir()
		c := buildOldCoordinator(t)
		c.SetSnapshotKeep(1)
		if err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
		mutateCoordinator(t, c)
		fault.SetTornWrites(torn)
		fault.FailAt(k)
		saveErr = c.SaveFS(fault, dir)
		ops = fault.Ops()
		opLog = fault.OpLog()
		fault.FailAt(0)
		return dir, ops, opLog, saveErr
	}

	_, total, _, err := runSave(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if total < 30 {
		t.Fatalf("suspiciously few operations counted: %d", total)
	}

	var refNew []byte
	for _, torn := range []bool{false, true} {
		var sawOld, sawNew bool
		for k := int64(1); k <= total; k++ {
			dir, _, opLog, saveErr := runSave(k, torn)
			if saveErr == nil {
				t.Fatalf("k=%d torn=%v: injected fault did not surface from Save", k, torn)
			}
			got, err := Load(dir)
			if err != nil {
				t.Fatalf("k=%d torn=%v: Load after crashed save failed: %v\nops:\n%s",
					k, torn, err, strings.Join(opLog, "\n"))
			}
			b := stateBytes(t, got)
			if refNew == nil {
				// Lazily capture the new-state reference from the first
				// post-commit-point crash (identical to a probe rebuild, but
				// avoids relying on rebuild determinism twice).
				probe := buildOldCoordinator(t)
				mutateCoordinator(t, probe)
				refNew = stateBytes(t, probe)
			}
			switch {
			case bytes.Equal(b, refOld):
				sawOld = true
			case bytes.Equal(b, refNew):
				sawNew = true
			default:
				t.Fatalf("k=%d torn=%v: Load yielded a state that is neither old nor new\nops:\n%s",
					k, torn, strings.Join(opLog, "\n"))
			}
		}
		if !sawOld || !sawNew {
			t.Fatalf("torn=%v: sweep did not cross the commit point (old=%v new=%v)", torn, sawOld, sawNew)
		}
	}
}

// blockManifestFS fails any Create touching the SHARDS.json commit, leaving
// every other operation intact. Unlike an op-count fault, it crashes at the
// same logical point on every attempt even as GC and directory contents shift
// between attempts.
type blockManifestFS struct{ fsio.FS }

func (b blockManifestFS) Create(name string) (fsio.File, error) {
	if strings.HasPrefix(filepath.Base(name), manifestFile) {
		return nil, errors.New("injected: manifest write blocked")
	}
	return b.FS.Create(name)
}

// TestShardedRepeatedCrashedSavesKeepRollbackCut asserts the GC-protection
// invariant directly: many crashed saves in a row (each landing new per-shard
// generations with keep=1) must never collect the cut the durable manifest
// pins, and Load must keep yielding the old state bit-exactly.
func TestShardedRepeatedCrashedSavesKeepRollbackCut(t *testing.T) {
	refOld := stateBytes(t, buildOldCoordinator(t))
	dir := t.TempDir()
	c := buildOldCoordinator(t)
	c.SetSnapshotKeep(1)
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	mutateCoordinator(t, c)

	// Every attempt completes each shard's snapshot (installing a fresh
	// generation and running GC with keep=1) and then dies at the SHARDS.json
	// commit, so the durable manifest keeps pinning the old cut.
	blocked := blockManifestFS{fsio.OS()}
	for attempt := 0; attempt < 3; attempt++ {
		if err := c.SaveFS(blocked, dir); err == nil {
			t.Fatalf("attempt %d: injected fault did not surface", attempt)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("attempt %d: Load failed: %v", attempt, err)
		}
		if !bytes.Equal(stateBytes(t, got), refOld) {
			t.Fatalf("attempt %d: rollback cut no longer loads the old state", attempt)
		}
	}
	// And once the save completes, the new cut commits.
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	probe := buildOldCoordinator(t)
	mutateCoordinator(t, probe)
	if !bytes.Equal(stateBytes(t, got), stateBytes(t, probe)) {
		t.Fatal("completed save did not land the new state")
	}
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	c := buildOldCoordinator(t)
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, pinned, err := ShardDirs(dir); err != nil || len(pinned) != 3 {
		t.Fatalf("saved directory not detected as sharded: pinned=%v err=%v", pinned, err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 3 || got.NumRecords() != 9 || got.NumDeleted() != 1 {
		t.Fatalf("loaded %d shards, %d records, %d deleted", got.NumShards(), got.NumRecords(), got.NumDeleted())
	}
	if !bytes.Equal(stateBytes(t, c), stateBytes(t, got)) {
		t.Fatal("round-trip changed state")
	}
	// New adds keep the round-robin cursor: the next id continues the global
	// sequence instead of colliding with a loaded record.
	rec := graph.NewRecord()
	if err := rec.SetEdge("A", "B", 42); err != nil {
		t.Fatal(err)
	}
	if id := got.Add(rec); id != 9 {
		t.Fatalf("post-load Add assigned id %d, want 9", id)
	}
}

// TestOneShardManifestLayout: a one-shard store under a SHARDS.json manifest
// is a layout only earlier Coordinator.SaveFS callers produced (one shard now
// commits flat). LoadFS still reads it; saving one shard back into it is
// refused, since the manifest would shadow the flat cut.
func TestOneShardManifestLayout(t *testing.T) {
	c := New(1, 0)
	for i := 0; i < 3; i++ {
		rec := graph.NewRecord()
		if err := rec.SetEdge("A", "B", float64(i)); err != nil {
			t.Fatal(err)
		}
		c.Add(rec)
	}
	dir := t.TempDir()
	sub := shardDir(dir, 0, false)
	if err := c.Save(sub); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(sub, registryFile), filepath.Join(dir, registryFile)); err != nil {
		t.Fatal(err)
	}
	manifest := `{"format_version":1,"num_shards":1,"generations":["gen-000001"]}`
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 1 || got.NumRecords() != 3 {
		t.Fatalf("loaded %d shards, %d records", got.NumShards(), got.NumRecords())
	}
	if err := got.Save(dir); !errors.Is(err, ErrShadowedSave) {
		t.Fatalf("save into a manifest directory: err = %v, want ErrShadowedSave", err)
	}
}

package colstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"grove/internal/fsio"
)

// refBytes saves r into a fresh directory and returns the installed
// snapshot's manifest.json + data.bin bytes. Save is deterministic (every
// accessor sorts), so two relations with equal state produce equal bytes —
// the sweep uses this for bit-exact old-or-new assertions.
func refBytes(tb testing.TB, r *Relation) []byte {
	tb.Helper()
	dir := tb.TempDir()
	if err := r.Save(dir); err != nil {
		tb.Fatal(err)
	}
	return installedSnapshotBytes(tb, dir)
}

func installedSnapshotBytes(tb testing.TB, dir string) []byte {
	tb.Helper()
	snap, err := snapshotDir(fsio.OS(), dir)
	if err != nil {
		tb.Fatal(err)
	}
	var buf []byte
	for _, name := range []string{"manifest.json", "data.bin"} {
		b, err := os.ReadFile(filepath.Join(snap, name))
		if err != nil {
			tb.Fatal(err)
		}
		buf = append(buf, b...)
		buf = append(buf, 0)
	}
	return buf
}

// TestSaveFaultSweep is the durability claim, tested exhaustively: crash
// Save at every single I/O operation (with and without torn writes) and
// assert that Load afterwards yields the complete old snapshot or the
// complete new one, bit-exactly — never an error, never a mix.
func TestSaveFaultSweep(t *testing.T) {
	oldRel := buildSmallRelation(t)
	newRel := buildSmallRelation(t)
	if err := newRel.AppendEdge(0, 9, "", 7, true); err != nil {
		t.Fatal(err)
	}
	if err := newRel.AppendEdge(1, 2, "cost", 5, true); err != nil {
		t.Fatal(err)
	}
	if _, err := newRel.MaterializeView("v", []EdgeID{4, 5}); err != nil {
		t.Fatal(err)
	}
	refOld := refBytes(t, oldRel)
	refNew := refBytes(t, newRel)
	if bytes.Equal(refOld, refNew) {
		t.Fatal("fixtures must differ for the sweep to mean anything")
	}

	seed := func() string {
		dir := t.TempDir()
		if err := oldRel.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	// One unarmed run counts the save's total operations T; the sweep then
	// crashes at every k in [1, T].
	fault := fsio.NewFaultFS(fsio.OS())
	fault.FailAt(0)
	if err := newRel.SaveFS(fault, seed()); err != nil {
		t.Fatal(err)
	}
	total := fault.Ops()
	if total < 15 {
		t.Fatalf("suspiciously few operations counted: %d\n%s", total, strings.Join(fault.OpLog(), "\n"))
	}

	for _, torn := range []bool{false, true} {
		fault.SetTornWrites(torn)
		var sawOld, sawNew bool
		for k := int64(1); k <= total; k++ {
			dir := seed()
			fault.FailAt(k)
			saveErr := newRel.SaveFS(fault, dir)
			opLog := fault.OpLog()
			fault.FailAt(0)
			if saveErr == nil {
				t.Fatalf("k=%d torn=%v: injected fault did not surface from Save", k, torn)
			}
			got, err := Load(dir)
			if err != nil {
				t.Fatalf("k=%d torn=%v: Load after crashed save failed: %v\nops:\n%s",
					k, torn, err, strings.Join(opLog, "\n"))
			}
			switch b := refBytes(t, got); {
			case bytes.Equal(b, refOld):
				sawOld = true
			case bytes.Equal(b, refNew):
				sawNew = true
			default:
				t.Fatalf("k=%d torn=%v: Load yielded a state that is neither old nor new\nops:\n%s",
					k, torn, strings.Join(opLog, "\n"))
			}
		}
		// The sweep must actually span the commit point: early crashes keep
		// the old snapshot, late ones land the new one.
		if !sawOld || !sawNew {
			t.Fatalf("torn=%v: sweep did not cross the commit point (old=%v new=%v)", torn, sawOld, sawNew)
		}
	}
}

// buildMultiBlockRelation builds a relation whose measure columns span
// several v2 value blocks: edge 1 is constant, edge 2 monotonic.
func buildMultiBlockRelation(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation(0)
	for i := 0; i < 2*BlockValues+17; i++ {
		appendMeasured(r, map[EdgeID]float64{1: 7, 2: float64(1<<20 + i)})
	}
	return r
}

// TestSaveFaultSweepMultiBlock repeats the crash sweep over a relation whose
// columns span several blocks, so the sweep crosses block-payload
// and block-index writes of the v2 layout, not just the tiny single-block
// case. refBytes re-saves the loaded (lazily paged) relation, so each probe
// also proves a paged load re-saves to the exact installed bytes.
func TestSaveFaultSweepMultiBlock(t *testing.T) {
	oldRel := buildMultiBlockRelation(t)
	newRel := buildMultiBlockRelation(t)
	if err := newRel.AppendEdge(3, 2, "", 42, true); err != nil { // perturb mid-block: rewrites edge 2's first block
		t.Fatal(err)
	}
	refOld := refBytes(t, oldRel)
	refNew := refBytes(t, newRel)
	if bytes.Equal(refOld, refNew) {
		t.Fatal("fixtures must differ for the sweep to mean anything")
	}

	seed := func() string {
		dir := t.TempDir()
		if err := oldRel.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	fault := fsio.NewFaultFS(fsio.OS())
	fault.FailAt(0)
	if err := newRel.SaveFS(fault, seed()); err != nil {
		t.Fatal(err)
	}
	total := fault.Ops()

	fault.SetTornWrites(true) // the harsher mode; the plain mode is TestSaveFaultSweep's
	var sawOld, sawNew bool
	for k := int64(1); k <= total; k++ {
		dir := seed()
		fault.FailAt(k)
		saveErr := newRel.SaveFS(fault, dir)
		opLog := fault.OpLog()
		fault.FailAt(0)
		if saveErr == nil {
			t.Fatalf("k=%d: injected fault did not surface from Save", k)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("k=%d: Load after crashed save failed: %v\nops:\n%s",
				k, err, strings.Join(opLog, "\n"))
		}
		switch b := refBytes(t, got); {
		case bytes.Equal(b, refOld):
			sawOld = true
		case bytes.Equal(b, refNew):
			sawNew = true
		default:
			t.Fatalf("k=%d: Load yielded a state that is neither old nor new\nops:\n%s",
				k, strings.Join(opLog, "\n"))
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("sweep did not cross the commit point (old=%v new=%v)", sawOld, sawNew)
	}
}

// TestSaveFaultSweepSnapshotGC crashes Save at every I/O operation of a save
// whose keep policy garbage-collects THREE older generations: the sweep
// crosses the CURRENT flip and then each RemoveAll, proving GC runs strictly
// after the commit point — a crash mid-collection leaves extra directories,
// never a missing or half-installed state.
func TestSaveFaultSweepSnapshotGC(t *testing.T) {
	oldRel := buildSmallRelation(t)
	oldRel.SetSnapshotKeep(1000) // seeds must pile up generations for GC to chew
	newRel := buildSmallRelation(t)
	if err := newRel.AppendEdge(0, 9, "", 7, true); err != nil {
		t.Fatal(err)
	}
	newRel.SetSnapshotKeep(1)
	refOld := refBytes(t, oldRel)
	refNew := refBytes(t, newRel)
	if bytes.Equal(refOld, refNew) {
		t.Fatal("fixtures must differ for the sweep to mean anything")
	}

	seed := func() string {
		dir := t.TempDir()
		for i := 0; i < 3; i++ {
			if err := oldRel.Save(dir); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	fault := fsio.NewFaultFS(fsio.OS())
	fault.FailAt(0)
	cleanDir := seed()
	if err := newRel.SaveFS(fault, cleanDir); err != nil {
		t.Fatal(err)
	}
	total := fault.Ops()
	// The clean run must actually have collected: keep=1 leaves one gen.
	if gens := listGenerations(fsio.OS(), cleanDir); len(gens) != 1 {
		t.Fatalf("generations after keep=1 save = %v", gens)
	}

	for _, torn := range []bool{false, true} {
		fault.SetTornWrites(torn)
		var sawOld, sawNew, sawPartialGC bool
		for k := int64(1); k <= total; k++ {
			dir := seed()
			fault.FailAt(k)
			saveErr := newRel.SaveFS(fault, dir)
			opLog := fault.OpLog()
			fault.FailAt(0)
			if saveErr == nil {
				t.Fatalf("k=%d torn=%v: injected fault did not surface from Save", k, torn)
			}
			got, err := Load(dir)
			if err != nil {
				t.Fatalf("k=%d torn=%v: Load after crashed save failed: %v\nops:\n%s",
					k, torn, err, strings.Join(opLog, "\n"))
			}
			gens := listGenerations(fsio.OS(), dir)
			switch b := refBytes(t, got); {
			case bytes.Equal(b, refOld):
				sawOld = true
				// Pre-commit crash: GC has not started, all three seed
				// generations must still be intact (plus at most the
				// uncommitted new one).
				if len(gens) < 3 {
					t.Fatalf("k=%d torn=%v: crash before commit lost seed generations: %v\nops:\n%s",
						k, torn, gens, strings.Join(opLog, "\n"))
				}
			case bytes.Equal(b, refNew):
				sawNew = true
				if len(gens) > 1 {
					sawPartialGC = true // crashed mid-collection: extra dirs, still loadable
				}
			default:
				t.Fatalf("k=%d torn=%v: Load yielded a state that is neither old nor new\nops:\n%s",
					k, torn, strings.Join(opLog, "\n"))
			}
		}
		if !sawOld || !sawNew {
			t.Fatalf("torn=%v: sweep did not cross the commit point (old=%v new=%v)", torn, sawOld, sawNew)
		}
		// With three generations to remove, some crash point must land
		// between the flip and the last RemoveAll.
		if !sawPartialGC {
			t.Fatalf("torn=%v: sweep never observed a partially-collected directory", torn)
		}
	}
}

// TestLoadFallbackRecovery corrupts the installed generation and asserts
// Load falls back to the previous one, counting the recovery.
func TestLoadFallbackRecovery(t *testing.T) {
	oldRel := buildSmallRelation(t)
	newRel := buildSmallRelation(t)
	if err := newRel.AppendEdge(2, 9, "", 1, true); err != nil {
		t.Fatal(err)
	}
	refOld := refBytes(t, oldRel)

	dir := t.TempDir()
	if err := oldRel.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := newRel.Save(dir); err != nil {
		t.Fatal(err)
	}
	cur := CurrentGeneration(dir)
	data := filepath.Join(dir, cur, "data.bin")
	b, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(data, b, 0o644); err != nil {
		t.Fatal(err)
	}

	before := PersistRecoveries()
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("Load did not recover from corrupt installed generation: %v", err)
	}
	if !bytes.Equal(refBytes(t, got), refOld) {
		t.Fatal("recovered relation is not the previous generation")
	}
	if PersistRecoveries() != before+1 {
		t.Fatalf("recoveries = %d, want %d", PersistRecoveries(), before+1)
	}

	// Losing CURRENT as well still recovers via the newest-first scan.
	if err := os.Remove(filepath.Join(dir, currentFile)); err != nil {
		t.Fatal(err)
	}
	if got, err = Load(dir); err != nil {
		t.Fatalf("Load without CURRENT failed: %v", err)
	}
	if !bytes.Equal(refBytes(t, got), refOld) {
		t.Fatal("pointerless recovery is not the previous generation")
	}
}

func TestSnapshotGCKeepCount(t *testing.T) {
	r := buildSmallRelation(t)
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		if err := r.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	if gens := listGenerations(fsio.OS(), dir); len(gens) != DefaultSnapshotKeep {
		t.Fatalf("generations after 4 saves = %v, want %d", gens, DefaultSnapshotKeep)
	}
	if cur := CurrentGeneration(dir); cur != genDirName(4) {
		t.Fatalf("CURRENT = %q, want %q", cur, genDirName(4))
	}
	r.SetSnapshotKeep(3)
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	if gens := listGenerations(fsio.OS(), dir); len(gens) != 3 {
		t.Fatalf("generations with keep=3 = %v", gens)
	}
}

func TestGenerationsInventoryAndRollback(t *testing.T) {
	oldRel := buildSmallRelation(t)
	newRel := buildSmallRelation(t)
	if err := newRel.AppendEdge(1, 9, "", 6, true); err != nil {
		t.Fatal(err)
	}
	refOld := refBytes(t, oldRel)

	dir := t.TempDir()
	if err := oldRel.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := newRel.Save(dir); err != nil {
		t.Fatal(err)
	}

	infos, err := Generations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("generations = %+v", infos)
	}
	if infos[0].Name != genDirName(2) || !infos[0].Current || infos[0].Status != "ok" {
		t.Fatalf("newest = %+v", infos[0])
	}
	if infos[1].Name != genDirName(1) || infos[1].Current || infos[1].Status != "ok" {
		t.Fatalf("oldest = %+v", infos[1])
	}
	if infos[0].SizeBytes <= 0 {
		t.Fatalf("size = %d", infos[0].SizeBytes)
	}

	if err := Rollback(dir, genDirName(1)); err != nil {
		t.Fatal(err)
	}
	if cur := CurrentGeneration(dir); cur != genDirName(1) {
		t.Fatalf("CURRENT after rollback = %q", cur)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes(t, got), refOld) {
		t.Fatal("rollback did not restore the old generation")
	}

	if err := Rollback(dir, "gen-9"); err == nil {
		t.Fatal("Rollback accepted a missing generation")
	}
	if err := Rollback(dir, "../escape"); err == nil {
		t.Fatal("Rollback accepted a non-generation name")
	}

	// A generation that fails verification is reported, not hidden, and is
	// not a valid rollback target.
	data := filepath.Join(dir, genDirName(2), "data.bin")
	b, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if err := os.WriteFile(data, b, 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err = Generations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].Status == "ok" {
		t.Fatal("corrupt generation reported as ok")
	}
	if err := Rollback(dir, genDirName(2)); err == nil {
		t.Fatal("Rollback accepted a corrupt generation")
	}
}

// TestConcurrentSaveLoadMutate runs overlapping Saves, Loads and a mutating
// writer under the race detector: snapshot installation must never be
// observed half-done, and every Save lands its own complete generation.
func TestConcurrentSaveLoadMutate(t *testing.T) {
	r := buildSmallRelation(t)
	r.SetSnapshotKeep(1000) // no GC: every generation must survive and verify
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}

	const savers, savesEach = 2, 6
	stop := make(chan struct{})
	var saverWG, bgWG sync.WaitGroup

	bgWG.Add(1)
	go func() { // writer
		defer bgWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := r.AppendEdge(uint32(i%3), EdgeID(10+i%5), "", float64(i), true); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	errc := make(chan error, savers*savesEach+64)
	for s := 0; s < savers; s++ {
		saverWG.Add(1)
		go func() {
			defer saverWG.Done()
			for i := 0; i < savesEach; i++ {
				if err := r.Save(dir); err != nil {
					errc <- fmt.Errorf("save: %w", err)
				}
			}
		}()
	}
	for l := 0; l < 2; l++ {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := Load(dir); err != nil {
						errc <- fmt.Errorf("load: %w", err)
						return
					}
				}
			}
		}()
	}
	// Savers finish first; then stop the writer and loaders.
	saverWG.Wait()
	close(stop)
	bgWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Overlapping saves must have serialized into distinct generations —
	// the initial one plus one per Save — and every one verifies.
	infos, err := Generations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + savers*savesEach; len(infos) != want {
		t.Fatalf("generations = %d, want %d", len(infos), want)
	}
	for _, info := range infos {
		if info.Status != "ok" {
			t.Errorf("generation %s: %s", info.Name, info.Status)
		}
	}
	if _, err := Load(dir); err != nil {
		t.Fatal(err)
	}
}

func benchRelation() *Relation {
	r := NewRelation(0)
	for rec := 0; rec < 2000; rec++ {
		cells := make([]Cell, 20)
		for e := range cells {
			cells[e] = Cell{Edge: EdgeID(1 + (rec+e*7)%60), Value: float64(e), HasValue: true}
		}
		r.AppendRow(cells)
	}
	return r
}

func BenchmarkSave(b *testing.B) {
	r := benchRelation()
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Save(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoad(b *testing.B) {
	r := benchRelation()
	dir := b.TempDir()
	if err := r.Save(dir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}

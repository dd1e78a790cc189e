package grove

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"grove/internal/workload"
)

// nyRecords draws n records from the benchmark's NY generator.
func nyRecords(t *testing.T, n int) (*workload.Generator, []*Record) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.NewRoadNetwork(1000), 35, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, n)
	for i := range recs {
		if recs[i], err = gen.NextRecord(); err != nil {
			t.Fatal(err)
		}
	}
	return gen, recs
}

// TestAppendsLeaveLoadedColumnsPaged: appending to a loaded store adds to
// the columns' resident tails and leaves their paged prefixes on disk, so
// the buffer pool still bounds what the loaded values cost. 10 000 NY
// records are saved and loaded, the pool is cut to 1 % of the logical bytes
// after a few queries have filled it, and 500 more records are appended:
// what is resident stays within the pool budget, the block indexes and 8
// bytes per appended value, before the appends and after them.
func TestAppendsLeaveLoadedColumnsPaged(t *testing.T) {
	const loadedN, appendN = 10_000, 500
	gen, recs := nyRecords(t, loadedN+appendN)
	mem := Open()
	for _, rec := range recs[:loadedN] {
		mem.Add(rec)
	}
	dir := t.TempDir()
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// Right after a load only the prefixes' block indexes are resident.
	indexes := loaded.StorageStats().ResidentBytes
	for _, q := range gen.UniformQueries(20, 4) {
		if _, err := loaded.Aggregate(q, Sum); err != nil {
			t.Fatal(err)
		}
	}
	budget := loaded.StorageStats().LogicalBytes / 100
	loaded.SetPageCacheBytes(budget)

	check := func(label string, appended int64) {
		t.Helper()
		st := loaded.StorageStats()
		if limit := budget + indexes + 8*appended; st.ResidentBytes > limit {
			t.Fatalf("%s: %d bytes resident of %d logical, over %d (pool budget %d + block indexes %d + %d appended values)",
				label, st.ResidentBytes, st.LogicalBytes, limit, budget, indexes, appended)
		}
		if st.Pool.ResidentBytes == 0 {
			t.Fatalf("%s: the pool holds nothing; the queries faulted no block in", label)
		}
	}
	check("0 appends", 0)
	before := loaded.Stats().TotalMeasures
	for _, rec := range recs[loadedN:] {
		loaded.Add(rec)
	}
	check("500 appends", loaded.Stats().TotalMeasures-before)
	if err := loaded.Stats().Err; err != nil {
		t.Fatal(err)
	}
}

// TestReplayLeavesPrefixesPaged: recovering a store the recover-wal way — a
// 2-shard bootstrap snapshot of 1 000 records with aggregate views, and
// 2 000 records in the log — replays the log into the columns' tails. No
// column's prefix is read in: the recovered store pages exactly the value
// bytes its snapshot alone does.
func TestReplayLeavesPrefixesPaged(t *testing.T) {
	const bootN, logN = 1000, 2000
	gen, recs := nyRecords(t, bootN+logN)
	dir := t.TempDir()
	st := NewSharded(2)
	if err := st.EnableWAL(dir, WALConfig{Policy: SyncInterval}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:bootN] {
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.MaterializeAggViews(gen.ZipfQueries(200, 100, 8, true), Sum, 10, AdvisorOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil { // the checkpoint: an empty log past it
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	for p, b := range treeBytes(t, dir) {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(snapDir, p)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snapDir, p), []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range recs[bootN:] {
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := LoadStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	want := snap.StorageStats().OnDiskBytes
	snap.Close()
	recovered, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if n := recovered.WALStats().ReplayedOps; n != logN {
		t.Fatalf("replayed %d ops, want %d", n, logN)
	}
	if got := recovered.StorageStats().OnDiskBytes; want == 0 || got != want {
		t.Fatalf("the snapshot pages %d value bytes, the recovered store %d: replay read prefixes in", want, got)
	}
}

// TestSaveAcrossPrefixTailBoundary: a loaded column whose prefix ends
// mid-block (4 096 + 37 values on one shard), with appends past the next
// block boundaries, saves byte for byte as the same records built in
// memory — one tiling of 4 096-value blocks across both regions — at one
// and three shards, aggregate-view columns and named measures included.
func TestSaveAcrossPrefixTailBoundary(t *testing.T) {
	const loadedN, totalN = 4096 + 37, 3*4096 + 100
	extremes := []float64{math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 5e-324}
	record := func(i int) *Record {
		rec := NewRecord()
		ab := float64(i)*1.1 - 50
		if i%97 < len(extremes) {
			ab = extremes[i%97]
		}
		for _, err := range []error{
			rec.SetEdge("A", "B", ab),
			rec.SetEdge("B", "C", float64(i%16)*1.25),
			rec.SetEdgeNamed("A", "B", "w", float64(i%5)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return rec
	}
	for _, n := range []int{1, 3} {
		mem, base := NewSharded(n), NewSharded(n)
		for _, st := range []*Store{mem, base} {
			for i := 0; i < loadedN; i++ {
				st.Add(record(i))
			}
			if err := st.MaterializeAggViewPath("abc", Sum, "", "A", "B", "C"); err != nil {
				t.Fatal(err)
			}
		}
		baseDir := t.TempDir()
		if err := base.Save(baseDir); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadStore(baseDir)
		if err != nil {
			t.Fatal(err)
		}
		for i := loadedN; i < totalN; i++ {
			mem.Add(record(i))
			loaded.Add(record(i))
		}
		memDir, loadedDir := t.TempDir(), t.TempDir()
		if err := mem.Save(memDir); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Save(loadedDir); err != nil {
			t.Fatal(err)
		}
		sameTree(t, "saved after appends to a loaded store", treeBytes(t, loadedDir), treeBytes(t, memDir))
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

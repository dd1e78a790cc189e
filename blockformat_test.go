package grove

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"grove/internal/workload"
)

// legacyBlocksN is the record count testdata/legacy-blocks was saved with:
// pagedCorpus(t, st, legacyBlocksN), bitmaps optimized, by a writer that
// still chose among the raw, xor, dict and rle block encodings — its blocks
// hold all four tags.
const legacyBlocksN = 4096 + 37

// TestLegacyBlocksLoad: a snapshot holding xor, dict and rle blocks still
// loads and answers bit-identically to the store it was saved from, at every
// pool budget; its next save rewrites every block raw, and saving that again
// reproduces it byte for byte.
func TestLegacyBlocksLoad(t *testing.T) {
	mem := Open()
	pagedCorpus(t, mem, legacyBlocksN)
	path := []string{"A", "B", "C", "D", "E"}
	want := collectAnswers(t, mem, PathOf(path...).ToGraph())
	rawBytes := 8 * int64(mem.Stats().TotalMeasures) // every block raw

	legacy, err := LoadStore(filepath.Join("testdata", "legacy-blocks"))
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	st := legacy.StorageStats()
	if st.OnDiskBytes >= rawBytes {
		t.Fatalf("legacy snapshot holds %d block bytes for %d raw bytes; it lost its encoded blocks", st.OnDiskBytes, rawBytes)
	}
	for _, pct := range []int64{1, 10, 50, 100} {
		legacy.SetPageCacheBytes(st.LogicalBytes * pct / 100)
		diffAnswers(t, fmt.Sprintf("legacy at %d%%", pct), want, collectAnswers(t, legacy, PathOf(path...).ToGraph()))
	}
	diffNamedMeasure(t, "legacy", mem, legacy)
	if err := legacy.Stats().Err; err != nil {
		t.Fatal(err)
	}

	resaved := t.TempDir()
	if err := legacy.Save(resaved); err != nil {
		t.Fatal(err)
	}
	raw, err := LoadStore(resaved)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if got := raw.StorageStats().OnDiskBytes; got != rawBytes {
		t.Fatalf("re-saved snapshot holds %d block bytes, want %d: not every block is raw", got, rawBytes)
	}
	raw.SetPageCacheBytes(st.LogicalBytes / 100)
	diffAnswers(t, "re-saved", want, collectAnswers(t, raw, PathOf(path...).ToGraph()))
	diffNamedMeasure(t, "re-saved", mem, raw)

	again := t.TempDir()
	if err := raw.Save(again); err != nil {
		t.Fatal(err)
	}
	sameTree(t, "second save", treeBytes(t, again), treeBytes(t, resaved))
}

// TestSaveBytesPinned pins the bytes Save writes for a benchmark-shaped
// corpus — the NY generator's records with ten SUM views — at one and four
// shards. Every block such a corpus produces is raw, so the digests are the
// ones taken at 494a236, before the writer stopped choosing an encoding.
func TestSaveBytesPinned(t *testing.T) {
	want := map[int]string{
		1: "08756b12a469544fc27289f7c6496e2cea5e9fecb6f133ebd96a27351cf824e5",
		4: "e41e5ebd2a38e158f830dcfbca6a3d8b2c4755ebe768562036396ac259d263c2",
	}
	gen, err := workload.NewGenerator(workload.NewRoadNetwork(1000), 35, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, 2000)
	for i := range recs {
		if recs[i], err = gen.NextRecord(); err != nil {
			t.Fatal(err)
		}
	}
	sample := gen.ZipfQueries(200, 100, 8, true)
	for _, n := range []int{1, 4} {
		st := NewSharded(n)
		for _, rec := range recs {
			st.Add(rec)
		}
		if _, err := st.MaterializeAggViews(sample, Sum, 10, AdvisorOptions{}); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := st.Save(dir); err != nil {
			t.Fatal(err)
		}
		files := treeBytes(t, dir)
		paths := make([]string, 0, len(files))
		for p := range files {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		h := sha256.New()
		for _, p := range paths {
			fmt.Fprintf(h, "%s: %d bytes\n", p, len(files[p]))
			h.Write([]byte(files[p]))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[n] {
			t.Errorf("N=%d: saved bytes hash %s, want %s (the hash at 494a236)", n, got, want[n])
		}
	}
}

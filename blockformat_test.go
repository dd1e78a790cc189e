package grove

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"grove/internal/colstore"
	"grove/internal/workload"
)

// TestLegacyBlocksLoad: testdata/legacy-blocks was saved by a writer that
// still chose among the raw, xor, dict and rle block encodings, and its
// blocks hold all four tags. The retired tags are refused: the load fails
// with colstore.ErrRetiredEncoding, and the message names the block and the
// way out — one load and save with an earlier build, which rewrites every
// block raw.
func TestLegacyBlocksLoad(t *testing.T) {
	st, err := LoadStore(filepath.Join("testdata", "legacy-blocks"))
	if err == nil {
		st.Close()
		t.Fatal("a snapshot of xor, dict and rle blocks loaded")
	}
	if !errors.Is(err, colstore.ErrRetiredEncoding) {
		t.Fatalf("refusal is not ErrRetiredEncoding: %v", err)
	}
	for _, want := range []string{"edge 0 measures", "block 0 is rle-encoded", "load and save this store once with a build from commit 2aa4a65 or earlier"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
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

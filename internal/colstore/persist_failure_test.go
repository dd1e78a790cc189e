package colstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grove/internal/agg"
	"grove/internal/fsio"
)

// savedFixture writes a populated relation (views, tags, named measures) to
// a temp dir and returns the dir.
func savedFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	r := buildSmallRelation(t)
	if err := r.AppendEdge(0, 1, "cost", 9, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MaterializeView("v", []EdgeID{4, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MaterializeAggView("p", []EdgeID{6, 7}, agg.Sum); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag(0, "k", "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// installedDir resolves the directory holding the installed snapshot's
// manifest.json + data.bin, so corruption tests can damage the real files.
func installedDir(t *testing.T, dir string) string {
	t.Helper()
	snap, err := snapshotDir(fsio.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(snap, "manifest.json")); err != nil {
		t.Fatalf("no installed snapshot under %s: %v", dir, err)
	}
	return snap
}

func TestLoadRejectsTruncatedData(t *testing.T) {
	dir := savedFixture(t)
	path := filepath.Join(installedDir(t, dir), "data.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 4, 10} {
		if err := os.WriteFile(path, data[:len(data)/frac], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil {
			t.Errorf("Load accepted data truncated to 1/%d", frac)
		}
	}
}

func TestLoadRejectsCorruptManifest(t *testing.T) {
	dir := savedFixture(t)
	path := filepath.Join(installedDir(t, dir), "manifest.json")
	cases := map[string]string{
		"not json":        "{{{",
		"bad version":     `{"format_version": 99}`,
		"unknown aggfunc": `{"format_version":2,"num_records":3,"partition_width":1000,"agg_views":[{"name":"p","path":[6,7],"func":"MEDIAN"}]}`,
	}
	for name, content := range cases {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil {
			t.Errorf("Load accepted manifest case %q", name)
		}
	}
}

// TestLoadRejectsRetiredFormats: format version 1 and the pre-generational
// layout (manifest.json + data.bin at the directory root) no longer load;
// both are refused with an error naming the version found, never skipped.
// Blocks in the retired xor, dict and rle encodings are refused with
// ErrRetiredEncoding.
func TestLoadRejectsRetiredFormats(t *testing.T) {
	const v1 = `{"format_version":1,"num_records":3,"partition_width":1000}`
	wantVersion := func(t *testing.T, dir string, version string) {
		t.Helper()
		_, err := Load(dir)
		if err == nil || !strings.Contains(err.Error(), "format version "+version) {
			t.Fatalf("Load = %v, want an unsupported-format error naming version %s", err, version)
		}
	}
	t.Run("v1 generation", func(t *testing.T) {
		dir := savedFixture(t)
		if err := os.WriteFile(filepath.Join(installedDir(t, dir), "manifest.json"), []byte(v1), 0o644); err != nil {
			t.Fatal(err)
		}
		wantVersion(t, dir, "1")
	})
	t.Run("v1 at the root", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(v1), 0o644); err != nil {
			t.Fatal(err)
		}
		wantVersion(t, dir, "1")
		if _, err := Generations(dir); err == nil {
			t.Error("Generations inventoried a pre-generational directory")
		}
		if _, err := DiskSizeBytes(dir); err == nil {
			t.Error("DiskSizeBytes sized a pre-generational directory")
		}
	})
	t.Run("current format at the root", func(t *testing.T) {
		src := installedDir(t, savedFixture(t))
		dir := t.TempDir()
		for _, name := range []string{"manifest.json", "data.bin"} {
			b, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantVersion(t, dir, "2")
	})
	t.Run("retired block encodings", func(t *testing.T) {
		// One 5-value block under each tag: raw loads, the retired xor,
		// dict and rle tags are refused as retired, and a tag no build
		// ever wrote as unknown.
		for enc := uint8(encRaw); enc <= lastRetiredEnc+1; enc++ {
			index := binary.LittleEndian.AppendUint32(nil, 5)
			index = binary.LittleEndian.AppendUint32(index, 1)
			index = binary.LittleEndian.AppendUint32(index, 8*5)
			index = append(index, enc)
			index = binary.LittleEndian.AppendUint16(index, 5)
			index = append(index, make([]byte, 16)...)
			_, _, err := readBlockIndex(bytes.NewReader(index))
			retired := errors.Is(err, ErrRetiredEncoding)
			if (enc == encRaw) != (err == nil) || (enc >= 1 && enc <= lastRetiredEnc) != retired {
				t.Errorf("tag %d: readBlockIndex = %v", enc, err)
			}
		}
	})
}

func TestLoadRejectsFlippedBitmapMagic(t *testing.T) {
	dir := savedFixture(t)
	path := filepath.Join(installedDir(t, dir), "data.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff // first bitmap's magic
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load accepted corrupted bitmap header")
	}
}

func TestLoadRejectsMissingDataFile(t *testing.T) {
	dir := savedFixture(t)
	if err := os.Remove(filepath.Join(installedDir(t, dir), "data.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load accepted missing data.bin")
	}
	if _, err := DiskSizeBytes(dir); err == nil {
		t.Error("DiskSizeBytes accepted missing data.bin")
	}
}

func TestSaveIntoUncreatablePath(t *testing.T) {
	r := buildSmallRelation(t)
	// A path under an existing *file* cannot be created as a directory.
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(filepath.Join(f, "sub")); err == nil {
		t.Error("Save succeeded under a plain file")
	}
}

// TestLoadRoundTripAfterEveryFeature is the belt-and-braces round trip with
// every persisted feature engaged at once.
func TestLoadRoundTripAfterEveryFeature(t *testing.T) {
	dir := savedFixture(t)
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != 3 {
		t.Errorf("records = %d", got.NumRecords())
	}
	if v, ok := got.MeasureColumnNamed(1, "cost").Get(0); !ok || v != 9 {
		t.Errorf("named measure = %v,%v", v, ok)
	}
	if got.View("v") == nil || got.AggView("p") == nil {
		t.Error("views lost")
	}
	if !got.FetchTagBitmap("k", "x").Contains(0) {
		t.Error("tag lost")
	}
}

// TestLoadDetectsSilentBitFlip: a single flipped bit anywhere in data.bin —
// even one that would still parse — must fail the checksum.
func TestLoadDetectsSilentBitFlip(t *testing.T) {
	dir := savedFixture(t)
	path := filepath.Join(installedDir(t, dir), "data.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the middle of the payload (not a header).
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a silently corrupted data file")
	}
}

// TestLoadRejectsEdgeIDOutOfRange: bitmap columns live in a slice indexed
// by edge id, so a manifest naming an id at or past maxEdgeID is refused
// rather than sizing that slice from it.
func TestLoadRejectsEdgeIDOutOfRange(t *testing.T) {
	dir := savedFixture(t)
	path := filepath.Join(installedDir(t, dir), "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Edges[len(m.Edges)-1].ID = maxEdgeID
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Load of an edge id past the range: err = %v", err)
	}
}

// TestSparseEdgeIDs: edges far apart in id space are stored, listed in
// ascending order, partitioned and reloaded like dense ones, and the ids
// between them read as absent.
func TestSparseEdgeIDs(t *testing.T) {
	r := NewRelation(100)
	for _, e := range []EdgeID{1000, 3} {
		appendMeasured(r, map[EdgeID]float64{e: float64(e)})
	}
	check := func(r *Relation, what string) {
		t.Helper()
		if got := r.Edges(); len(got) != 2 || got[0] != 3 || got[1] != 1000 {
			t.Errorf("%s: Edges = %v", what, got)
		}
		if r.HasEdge(500) || r.EdgeBitmap(500) != nil || r.EdgeBitmap(1<<20) != nil {
			t.Errorf("%s: an unused id reads as present", what)
		}
		if !r.FetchEdgeBitmap(2000, nil).IsEmpty() {
			t.Errorf("%s: fetch past the last id is not empty", what)
		}
		if got := r.NumPartitions(); got != 11 {
			t.Errorf("%s: NumPartitions = %d, want 11", what, got)
		}
		if !r.EdgeBitmap(1000).Contains(0) || !r.EdgeBitmap(3).Contains(1) {
			t.Errorf("%s: records lost", what)
		}
	}
	check(r, "built")
	dir := t.TempDir()
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, "loaded")
}

package colstore

import (
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
	r.SetEdgeMeasureNamed(0, 1, "cost", 9)
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

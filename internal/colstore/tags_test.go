package colstore

import "testing"

func TestTagBasics(t *testing.T) {
	r := buildSmallRelation(t)
	if err := r.Tag(0, "type", "fast-track"); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag(1, "type", "regular"); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag(2, "type", "fast-track"); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag(0, "customer", "acme"); err != nil {
		t.Fatal(err)
	}

	got := r.FetchTagBitmap("type", "fast-track").ToSlice()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("fast-track = %v", got)
	}
	if r.FetchTagBitmap("type", "unknown").Cardinality() != 0 {
		t.Error("unknown tag value non-empty")
	}
	if r.FetchTagBitmap("nope", "x").Cardinality() != 0 {
		t.Error("unknown tag key non-empty")
	}

	keys := r.TagKeys()
	if len(keys) != 2 || keys[0] != "customer" || keys[1] != "type" {
		t.Errorf("TagKeys = %v", keys)
	}
	vals := r.TagValues("type")
	if len(vals) != 2 || vals[0] != "fast-track" || vals[1] != "regular" {
		t.Errorf("TagValues = %v", vals)
	}
}

func TestTagValidation(t *testing.T) {
	r := buildSmallRelation(t)
	if err := r.Tag(0, "", "x"); err == nil {
		t.Error("empty key accepted")
	}
	if err := r.Tag(99, "k", "v"); err == nil {
		t.Error("unknown record accepted")
	}
}

func TestTagFetchAccounted(t *testing.T) {
	r := buildSmallRelation(t)
	if err := r.Tag(0, "k", "v"); err != nil {
		t.Fatal(err)
	}
	start := r.Tracker().Snapshot()
	_ = r.FetchTagBitmap("k", "v")
	if got := r.Tracker().Snapshot().Sub(start).BitmapColumnsFetched; got != 1 {
		t.Errorf("tag fetch accounted %d bitmap columns, want 1", got)
	}
}

func TestTagsSurviveSaveLoad(t *testing.T) {
	dir := t.TempDir()
	r := buildSmallRelation(t)
	if err := r.Tag(1, "type", "regular"); err != nil {
		t.Fatal(err)
	}
	if err := r.Tag(2, "type", "fast"); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b := got.FetchTagBitmap("type", "regular"); b.Cardinality() != 1 || !b.Contains(1) {
		t.Errorf("regular tag after reload = %v", b.ToSlice())
	}
	if b := got.FetchTagBitmap("type", "fast"); !b.Contains(2) {
		t.Error("fast tag lost in reload")
	}
}

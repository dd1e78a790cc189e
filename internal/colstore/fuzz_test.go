package colstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"grove/internal/bitmap"
	"grove/internal/pagepool"
)

// buildColumn decodes the fuzz input as (rec uint32, value float64) pairs,
// 12 bytes each, into a measure column. NaNs are remapped (the column
// contract rejects them) and record ids are folded into a bounded space so
// the dense value slice stays proportional to the input.
func buildColumn(data []byte) *MeasureColumn {
	m := NewMeasureColumn()
	for len(data) >= 12 {
		rec := binary.LittleEndian.Uint32(data[:4]) % (1 << 20)
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[4:12]))
		if math.IsNaN(v) {
			v = 0
		}
		m.Set(rec, v)
		data = data[12:]
	}
	return m
}

// FuzzMeasureColumnRoundTrip checks decode(encode(column)) == column for
// arbitrary constructed columns, comparing values bitwise (so -0, ±Inf and
// denormals must all survive the trip); that the writer wrote every block
// raw; and that encoding the decoded column again reproduces the same bytes.
func FuzzMeasureColumnRoundTrip(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 36)
	for _, e := range []struct {
		rec uint32
		v   float64
	}{{0, 1.5}, {7, math.Inf(-1)}, {1 << 19, math.Copysign(0, -1)}} {
		seed = binary.LittleEndian.AppendUint32(seed, e.rec)
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(e.v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 12*4096 {
			return // cap the column size, not the value space
		}
		orig := buildColumn(data)
		var buf bytes.Buffer
		if err := writeMeasureColumn(&buf, orig); err != nil {
			t.Fatalf("encode of a valid column failed: %v", err)
		}
		got, err := readMeasureColumn(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of a fresh encoding failed: %v", err)
		}
		if got.Count() != orig.Count() {
			t.Fatalf("count = %d, want %d", got.Count(), orig.Count())
		}
		orig.ForEach(func(rec uint32, want float64) bool {
			have, ok := got.Get(rec)
			if !ok || math.Float64bits(have) != math.Float64bits(want) {
				t.Fatalf("record %d = %v (present=%v), want %v", rec, have, ok, want)
			}
			return true
		})

		rd := bytes.NewReader(buf.Bytes())
		if _, err := bitmap.New().ReadFrom(rd); err != nil {
			t.Fatal(err)
		}
		// readBlockIndex accepts only raw blocks of 8 bytes per value.
		if _, _, err := readBlockIndex(rd); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := writeMeasureColumn(&again, got); err != nil {
			t.Fatalf("re-encode of the decoded column failed: %v", err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatal("re-encoding the decoded column produced different bytes")
		}
	})
}

// FuzzReadMeasureColumn feeds arbitrary bytes to the column decoder: it must
// reject or accept but never panic or over-allocate, and anything it accepts
// must survive a second round trip unchanged.
func FuzzReadMeasureColumn(f *testing.F) {
	f.Add([]byte{})
	var buf bytes.Buffer
	if err := writeMeasureColumn(&buf, buildColumn(nil)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMeasureColumn(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as we got here without a panic
		}
		var out bytes.Buffer
		if err := writeMeasureColumn(&out, m); err != nil {
			t.Fatalf("decoded column does not re-encode: %v", err)
		}
		again, err := readMeasureColumn(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded column does not decode: %v", err)
		}
		if again.Count() != m.Count() {
			t.Fatalf("second trip count = %d, want %d", again.Count(), m.Count())
		}
	})
}

// FuzzLoadCorrupt writes fuzzed manifest.json and data.bin files and checks
// Load either succeeds or errors — a corrupt on-disk relation must never
// panic the loader. Seeds include retired format-version-1 manifests (always
// rejected) and a real paged snapshot so the fuzzer mutates block indexes and
// zone maps; when a corrupted store does load, every measure column is
// scanned to fault its value blocks in — corrupt payloads must surface as
// sticky page errors, never panics.
func FuzzLoadCorrupt(f *testing.F) {
	f.Add([]byte(`{"format_version":1}`), []byte{})
	f.Add([]byte(`{"format_version":1,"num_records":3,"partition_width":1000,"edges":[1]}`), []byte{0x42, 0x56, 0x52, 0x47})
	// A genuine v2 snapshot: its manifest and data bytes seed the mutation
	// space with valid block-index and zone-map layout.
	{
		dir := f.TempDir()
		r := NewRelation(0)
		for i := 0; i < 3*BlockValues/2; i++ {
			r.AppendRow([]Cell{{Edge: 1, Value: float64(i % 7), HasValue: true, Named: []NamedValue{{Name: "w", Value: float64(i)}}}})
		}
		if err := r.Save(dir); err != nil {
			f.Fatal(err)
		}
		gen, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
		if err != nil {
			f.Fatal(err)
		}
		gdir := filepath.Join(dir, string(bytes.TrimSpace(gen)))
		manifest, err := os.ReadFile(filepath.Join(gdir, "manifest.json"))
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(gdir, "data.bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(manifest, data)
	}
	f.Fuzz(func(t *testing.T, manifest, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "data.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// At the directory root the bytes are the retired pre-generational
		// layout: whatever they hold, Load must refuse them.
		if _, err := Load(dir); err == nil {
			t.Fatal("Load accepted a snapshot at the directory root")
		}
		// The same bytes inside a generational layout: a fuzzed snapshot
		// behind a valid CURRENT pointer must also never panic Load.
		gdir := t.TempDir()
		gen := filepath.Join(gdir, "gen-000001")
		if err := os.MkdirAll(gen, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gen, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gen, "data.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gdir, "CURRENT"), []byte("gen-000001\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Load(gdir)
		if err == nil && r == nil {
			t.Fatal("generational Load returned nil relation with nil error")
		}
		if err == nil {
			// A load is lazy: corrupt block payloads only show up when a
			// block faults in. Scan every column — any corruption must come
			// back as zero values plus a sticky page error, never a panic.
			scan := func(c *MeasureColumn) {
				c.ForEach(func(uint32, float64) bool { return true })
			}
			for _, c := range r.measures {
				scan(c)
			}
			for _, cols := range r.named {
				for _, c := range cols {
					scan(c)
				}
			}
			_ = r.PageError()
			_ = r.Close()
		}
	})
}

// FuzzDecodeBlock feeds arbitrary payload bytes and value counts straight
// into the raw block decoders — the exact surface a corrupt page hits after
// the block index passed validation. Each must reject or fill dst exactly,
// never panic or over-read, and all three must agree: rawInto (the memmove
// path of save and materialize), decodeFrame (the fault path, into a pool
// frame's chunks) and decodeRaw (the portable per-value decoder). The seeds
// are raw blocks of one value up to a full block, ending mid-chunk and on a
// chunk boundary, plus payloads one byte short, one byte long and empty.
func FuzzDecodeBlock(f *testing.F) {
	for _, n := range []int{1, 2, 37, 127, 128, 129, 300, 2500, BlockValues} {
		payload, err := rawBlock(nil, rawTestValues(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(n), payload)
	}
	short, _ := rawBlock(nil, rawTestValues(300))
	f.Add(uint16(300), short[:len(short)-1])
	f.Add(uint16(37), append(short[:8*37:8*37], 0))
	f.Add(uint16(BlockValues), []byte{})
	pool := pagepool.New(0)
	f.Fuzz(func(t *testing.T, count uint16, payload []byte) {
		n := int(count) % (BlockValues + 1)
		dst := make([]float64, n)
		err := rawInto(payload, dst)
		portable := make([]float64, n)
		if perr := decodeRaw(payload, portable); (perr == nil) != (err == nil) {
			t.Fatalf("rawInto: %v, decodeRaw: %v", err, perr)
		}
		fr := pool.Reserve(n)
		defer pool.Abandon(fr)
		if ferr := decodeFrame(payload, fr); (ferr == nil) != (err == nil) {
			t.Fatalf("rawInto: %v, decodeFrame: %v", err, ferr)
		}
		if err != nil {
			return // rejected without panic: the contract for corrupt pages
		}
		for i := range dst {
			if math.Float64bits(portable[i]) != math.Float64bits(dst[i]) || math.Float64bits(fr.At(i)) != math.Float64bits(dst[i]) {
				t.Fatalf("value %d: rawInto %x, decodeRaw %x, frame %x", i,
					math.Float64bits(dst[i]), math.Float64bits(portable[i]), math.Float64bits(fr.At(i)))
			}
		}
	})
}

// FuzzBlockIndex feeds arbitrary bytes to the v2 block-index reader. It must
// never panic, and anything it accepts must satisfy the tiling invariants
// the paged read path depends on: the per-block counts tile the column (the
// reader itself refuses any block that is not raw, 8 bytes per value).
func FuzzBlockIndex(f *testing.F) {
	f.Add([]byte{})
	var buf bytes.Buffer
	col := NewMeasureColumn()
	for i := 0; i < BlockValues+3; i++ {
		col.Set(uint32(i), float64(i))
	}
	if err := writeMeasureColumn(&buf, col); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		count, metas, err := readBlockIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		total := 0
		for i, m := range metas {
			if m.count == 0 || int(m.count) > BlockValues {
				t.Fatalf("block %d: accepted count %d", i, m.count)
			}
			total += int(m.count)
		}
		if total != count {
			t.Fatalf("accepted index where blocks hold %d values but column claims %d", total, count)
		}
	})
}

// FuzzCurrentPointer feeds arbitrary bytes as the CURRENT pointer file of a
// store holding one valid generation. Whatever the pointer claims — garbage,
// a missing generation, a path-traversal attempt — Load must recover via the
// generation scan and never panic.
func FuzzCurrentPointer(f *testing.F) {
	f.Add([]byte("gen-000001\n"))
	f.Add([]byte("gen-999999"))
	f.Add([]byte("../../../etc/passwd\n"))
	f.Add([]byte{0x00, 0xff, 0x0a})
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, cur []byte) {
		dir := t.TempDir()
		r := NewRelation(0)
		appendMeasured(r, map[EdgeID]float64{1: 2})
		if err := r.Save(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "CURRENT"), cur, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(dir)
		if err != nil || got == nil {
			t.Fatalf("Load with fuzzed CURRENT did not recover: %v", err)
		}
		if got.NumRecords() != 1 {
			t.Fatalf("recovered relation has %d records", got.NumRecords())
		}
	})
}

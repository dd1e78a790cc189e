package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
	"grove/internal/wal"
)

// saveReplayBase saves an n-shard store holding one A→B record per shard to
// dir and returns the snapshot generation each shard's log must extend.
func saveReplayBase(t *testing.T, dir string, n int) []string {
	t.Helper()
	c := New(n, 0)
	for i := 0; i < n; i++ {
		rec := graph.NewRecord()
		if err := rec.SetEdge("A", "B", 1); err != nil {
			t.Fatal(err)
		}
		c.Add(rec)
	}
	if err := c.SaveFS(fsio.OS(), dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFS(fsio.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	gens := make([]string, n)
	for s := range gens {
		gens[s] = loaded.Unit(s).Rel.SourceGeneration()
	}
	return gens
}

// writeShardLog writes ops, LSN 1 onwards, as shard s's log pinned to gen.
func writeShardLog(t *testing.T, dir string, s, n int, gen string, ops []wal.Op) {
	t.Helper()
	l, err := wal.Create(fsio.OS(), walPath(dir, s, n), uint32(s), gen, 1, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if _, err := l.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// addRow is an add-record op of one record holding the given elements.
func addRow(t *testing.T, elems ...graph.EdgeKey) wal.Op {
	t.Helper()
	rec := graph.NewRecord()
	for _, k := range elems {
		if err := rec.SetEdge(k.From, k.To, 1); err != nil {
			t.Fatal(err)
		}
	}
	return wal.Op{Kind: wal.OpAddRecord, Row: rec.Row()}
}

// conflictingLogs gives each of n shards a log that introduces the same six
// unseen elements, each shard in its own order (rotated by the shard index,
// reversed on odd shards): single-element rows behind the known A→B, one row
// with two new elements, and an append-edge op naming a new element.
func conflictingLogs(t *testing.T, n int) [][]wal.Op {
	elems := make([]graph.EdgeKey, 6)
	for k := range elems {
		elems[k] = graph.E(fmt.Sprintf("n%d", k), fmt.Sprintf("n%d", k+1))
	}
	logs := make([][]wal.Op, n)
	for s := range logs {
		order := slices.Clone(elems)
		if s%2 == 1 {
			slices.Reverse(order)
		}
		order = append(order[s%len(order):], order[:s%len(order)]...)
		logs[s] = []wal.Op{
			addRow(t, graph.E("A", "B"), order[0]),
			addRow(t, order[1], order[2]),
			{Kind: wal.OpAppendEdge, Rec: 0, From: order[3].From, To: order[3].To},
			addRow(t, graph.E("A", "B"), order[4]),
			addRow(t, order[5]),
		}
	}
	return logs
}

// modelIDs is the registry a one-op-at-a-time replay builds: the snapshot's
// A→B, then every new element in order of first occurrence — shard by
// shard, each log in LSN order, each row in key order.
func modelIDs(logs [][]wal.Op) map[graph.EdgeKey]int {
	ids := map[graph.EdgeKey]int{graph.E("A", "B"): 0}
	see := func(k graph.EdgeKey) {
		if _, ok := ids[k]; !ok {
			ids[k] = len(ids)
		}
	}
	for _, ops := range logs {
		for _, op := range ops {
			if op.Kind == wal.OpAppendEdge {
				see(graph.E(op.From, op.To))
				continue
			}
			for _, k := range op.Row.Keys {
				see(k)
			}
		}
	}
	return ids
}

// TestReplayAssignsIDsInShardOrder: shards replay concurrently, but a new
// element's id follows its first occurrence in (shard, LSN) order, whichever
// shard the scheduler runs first — and so the registry a checkpoint writes
// after the load is the same file on every load.
func TestReplayAssignsIDsInShardOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			gens := saveReplayBase(t, dir, n)
			logs := conflictingLogs(t, n)
			for s, ops := range logs {
				writeShardLog(t, dir, s, n, gens[s], ops)
			}
			want := modelIDs(logs)
			var first []byte
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for i := 0; i < 20; i++ {
					c, err := LoadFS(fsio.OS(), dir)
					if err != nil {
						t.Fatal(err)
					}
					reg := c.Registry()
					if reg.Len() != len(want) {
						t.Fatalf("GOMAXPROCS=%d load %d: %d ids, want %d", procs, i, reg.Len(), len(want))
					}
					for k, id := range want {
						if got, ok := reg.Lookup(k); !ok || int(got) != id {
							t.Fatalf("GOMAXPROCS=%d load %d: %v has id %d (%v), want %d", procs, i, k, got, ok, id)
						}
					}
					// Attaching to another directory checkpoints into it.
					out := t.TempDir()
					if err := c.AttachWALFS(fsio.OS(), out, wal.Config{}); err != nil {
						t.Fatal(err)
					}
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
					b, err := fsio.ReadFile(fsio.OS(), filepath.Join(out, registryFile))
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = b
					} else if !bytes.Equal(b, first) {
						t.Fatalf("GOMAXPROCS=%d load %d: checkpointed registry differs from the first load's", procs, i)
					}
				}
			}
		})
	}
}

// TestReplayErrorIsTheLowestShards: a log that cannot apply fails the load
// with the error the one-shard-at-a-time replay gave — the lowest failing
// shard's, naming the op's LSN — and a skipped log puts nothing in the
// registry.
func TestReplayErrorIsTheLowestShards(t *testing.T) {
	bad := wal.Op{Kind: wal.OpDelete, Rec: 50}
	load := func(t *testing.T, n int, logs map[int][]wal.Op, gens map[int]string) (*Coordinator, error) {
		dir := t.TempDir()
		base := saveReplayBase(t, dir, n)
		for s, ops := range logs {
			gen := base[s]
			if g, ok := gens[s]; ok {
				gen = g
			}
			writeShardLog(t, dir, s, n, gen, ops)
		}
		return LoadFS(fsio.OS(), dir)
	}
	good := func() []wal.Op {
		return []wal.Op{addRow(t, graph.E("C", "D")), {Kind: wal.OpDelete, Rec: 0}}
	}

	t.Run("shard 1 only", func(t *testing.T) {
		_, err := load(t, 3, map[int][]wal.Op{
			0: good(),
			1: {addRow(t, graph.E("C", "D")), addRow(t, graph.E("D", "E")), bad, addRow(t, graph.E("E", "F"))},
			2: good(),
		}, nil)
		const want = "shard 1: wal replay of LSN 3: shard: delete targets record 50 of 3"
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("shards 0 and 2", func(t *testing.T) {
		_, err := load(t, 3, map[int][]wal.Op{
			0: {addRow(t, graph.E("C", "D")), bad},
			1: good(),
			2: {bad},
		}, nil)
		const want = "shard 0: wal replay of LSN 2: shard: delete targets record 50 of 2"
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
	t.Run("skipped log", func(t *testing.T) {
		c, err := load(t, 2, map[int][]wal.Op{
			0: good(),
			1: {addRow(t, graph.E("S", "T")), {Kind: wal.OpAppendEdge, Rec: 0, From: "U", To: "W"}},
		}, map[int]string{1: "gen-999999"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if ws := c.WALStats(); ws.ReplayedOps != 2 || ws.SkippedLogs != 1 {
			t.Fatalf("replayed %d, skipped %d: want 2 and 1", ws.ReplayedOps, ws.SkippedLogs)
		}
		for _, k := range []graph.EdgeKey{graph.E("S", "T"), graph.E("U", "W")} {
			if id, ok := c.Registry().Lookup(k); ok {
				t.Fatalf("the skipped log's %v got id %d", k, id)
			}
		}
		if got := c.Registry().Len(); got != 2 {
			t.Fatalf("registry holds %d ids, want 2 (A→B and C→D)", got)
		}
	})
}

// TestReplayRefusesBadRows: replay applies a logged row as it stands, so a
// row the live path never logs — out of order, with a repeated element, or
// cyclic — fails the load with a ReplayError naming the shard and the LSN.
func TestReplayRefusesBadRows(t *testing.T) {
	cell := colstore.Cell{Value: 1, HasValue: true}
	for _, tc := range []struct {
		name string
		row  *graph.Row
		want error
	}{
		{"unsorted", &graph.Row{Keys: []graph.EdgeKey{graph.E("D", "E"), graph.E("C", "D")}, Cells: []colstore.Cell{cell, cell}}, graph.ErrRowOrder},
		{"repeated", &graph.Row{Keys: []graph.EdgeKey{graph.E("C", "D"), graph.E("C", "D")}, Cells: []colstore.Cell{cell, cell}}, graph.ErrRowOrder},
		{"cyclic", &graph.Row{Keys: []graph.EdgeKey{graph.E("C", "D"), graph.E("D", "C")}, Cells: []colstore.Cell{cell, cell}}, graph.ErrRowCycle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			gens := saveReplayBase(t, dir, 2)
			writeShardLog(t, dir, 0, 2, gens[0], []wal.Op{addRow(t, graph.E("C", "D"))})
			writeShardLog(t, dir, 1, 2, gens[1], []wal.Op{addRow(t, graph.E("C", "D")), {Kind: wal.OpAddRecord, Row: tc.row}})
			_, err := LoadFS(fsio.OS(), dir)
			var re *ReplayError
			if !errors.As(err, &re) || re.Shard != 1 || re.LSN != 2 || !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want a ReplayError of shard 1, LSN 2 wrapping %v", err, tc.want)
			}
		})
	}
}

// versionOneLog is a log header exactly as format version 1 wrote it —
// the layout every version shares — with no frame after it.
func versionOneLog(shard uint32, gen string) []byte {
	b := []byte("GROVEWAL")
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, shard)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(gen)))
	b = append(b, gen...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestReplayRefusesUnsupportedVersion: a log of a format version this build
// does not read, pinned to the loaded cut, fails the load with
// wal.ErrUnsupportedVersion — skipping it would drop its ops and let the
// next checkpoint erase them. Pinned to another generation it is stale and
// skipped like any stale log.
func TestReplayRefusesUnsupportedVersion(t *testing.T) {
	dir := t.TempDir()
	gens := saveReplayBase(t, dir, 2)
	writeShardLog(t, dir, 0, 2, gens[0], []wal.Op{addRow(t, graph.E("C", "D"))})
	if err := os.WriteFile(walPath(dir, 1, 2), versionOneLog(1, gens[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFS(fsio.OS(), dir)
	if !errors.Is(err, wal.ErrUnsupportedVersion) || !strings.HasPrefix(err.Error(), "shard 1: ") || !strings.Contains(err.Error(), "Save it once") {
		t.Fatalf("err = %v, want shard 1's wal.ErrUnsupportedVersion naming the conversion", err)
	}

	if err := os.WriteFile(walPath(dir, 1, 2), versionOneLog(1, "gen-999999"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadFS(fsio.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ws := c.WALStats(); ws.ReplayedOps != 1 || ws.SkippedLogs != 1 {
		t.Fatalf("replayed %d, skipped %d: want 1 and 1", ws.ReplayedOps, ws.SkippedLogs)
	}
}

// TestResumeAfterTornDeclaration: a crash tears the frame that declares new
// keys. The load drops it, and attaching resumes the log in place with the
// dictionary its valid prefix declared — without the torn keys — so ops
// after the resume that use those keys declare them again. The final load
// equals the acknowledged ops, at 1 and 2 shards.
func TestResumeAfterTornDeclaration(t *testing.T) {
	rec := func(elems ...graph.EdgeKey) *graph.Record {
		r := graph.NewRecord()
		for i, k := range elems {
			if err := r.SetEdge(k.From, k.To, float64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	ab, bc, pq, qr := graph.E("A", "B"), graph.E("B", "C"), graph.E("P", "Q"), graph.E("Q", "R")
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			live, shadow := New(n, 0), New(n, 0)
			for _, c := range []*Coordinator{live, shadow} {
				c.Add(rec(ab))
			}
			if err := live.AttachWALFS(fsio.OS(), dir, wal.Config{Policy: wal.SyncAlways}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for _, c := range []*Coordinator{live, shadow} {
					if _, err := c.Append(rec(ab, bc)); err != nil {
						t.Fatal(err)
					}
				}
			}
			sizes := make([]int64, n)
			for s := range sizes {
				fi, err := os.Stat(walPath(dir, s, n))
				if err != nil {
					t.Fatal(err)
				}
				sizes[s] = fi.Size()
			}
			g, err := live.Append(rec(bc, pq, qr))
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			torn := int(g) % n
			fi, err := os.Stat(walPath(dir, torn, n))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(walPath(dir, torn, n), sizes[torn]+(fi.Size()-sizes[torn])/2); err != nil {
				t.Fatal(err)
			}

			loaded, err := LoadFS(fsio.OS(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := loaded.Registry().Lookup(pq); ok {
				t.Fatal("the torn frame's key reached the registry")
			}
			if err := loaded.AttachWALFS(fsio.OS(), dir, wal.Config{Policy: wal.SyncAlways}); err != nil {
				t.Fatal(err)
			}
			if st := loaded.WALStats().Shards[torn]; st.NextLSN == st.BaseLSN {
				t.Fatalf("attach checkpointed (log of shard %d empty) instead of resuming", torn)
			}
			for i := 0; i < n; i++ {
				for _, c := range []*Coordinator{loaded, shadow} {
					g, err := c.Append(rec(pq, qr))
					if err != nil {
						t.Fatal(err)
					}
					if err := c.AppendEdge(g, "R", "P", "", 7, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := loaded.AppendEdge(uint32(torn), "Q", "R", "cost", 3, true); err != nil {
				t.Fatal(err)
			}
			if err := shadow.AppendEdge(uint32(torn), "Q", "R", "cost", 3, true); err != nil {
				t.Fatal(err)
			}
			if err := loaded.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := LoadFS(fsio.OS(), dir)
			if err != nil {
				t.Fatal(err)
			}
			defer final.Close()
			if got, want := nameDigest(final), nameDigest(shadow); got != want {
				t.Errorf("the recovered store differs from the acknowledged ops\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// secondReadFS serves one log as it is to replay's first read of it and
// changes what the second read sees: at the second Stat of the path it
// rewrites the file with swap (when set), and from the second Open on every
// read of the file fails with failRead (when set). Only the path's own
// shard touches the counts.
type secondReadFS struct {
	fsio.FS
	t            *testing.T
	path         string
	swap         []byte
	failRead     error
	stats, opens int
}

func (f *secondReadFS) Stat(name string) (os.FileInfo, error) {
	if name == f.path {
		if f.stats++; f.stats == 2 && f.swap != nil {
			if err := os.WriteFile(name, f.swap, 0o644); err != nil {
				f.t.Error(err)
			}
		}
	}
	return f.FS.Stat(name)
}

func (f *secondReadFS) Open(name string) (fsio.File, error) {
	file, err := f.FS.Open(name)
	if name == f.path && err == nil {
		if f.opens++; f.opens >= 2 && f.failRead != nil {
			return failingStream{file, f.failRead}, nil
		}
	}
	return file, err
}

// failingStream is a file whose sequential reads fail.
type failingStream struct {
	fsio.File
	err error
}

func (f failingStream) Read([]byte) (int, error) { return 0, f.err }

// TestReplayDetectsALogChangedBetweenReads: replay reads each log twice —
// once to check it, once to apply it — and a second read that does not give
// back the frames the first checked fails the load with a ReplayError
// naming the shard and the first LSN it could not apply, never a panic: a
// changed frame, frames missing or added (also to a log that held none), a
// changed header, a failed read.
func TestReplayDetectsALogChangedBetweenReads(t *testing.T) {
	ops := []wal.Op{addRow(t, graph.E("C", "D")), addRow(t, graph.E("D", "E")), {Kind: wal.OpDelete, Rec: 0}}
	logBytes := func(gen string, ops []wal.Op) []byte {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Dir(walPath(dir, 1, 2)), 0o755); err != nil {
			t.Fatal(err)
		}
		writeShardLog(t, dir, 1, 2, gen, ops)
		b, err := os.ReadFile(walPath(dir, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	injected := errors.New("injected read failure")
	for _, tc := range []struct {
		name   string
		logged []wal.Op // shard 1's log as the first read finds it
		swap   func(gen string) []byte
		fail   error
		lsn    uint64
		want   error
	}{
		{"frame changed", ops, func(gen string) []byte {
			return logBytes(gen, []wal.Op{ops[0], addRow(t, graph.E("D", "F")), ops[2]})
		}, nil, 2, ErrLogChanged},
		{"frames missing", ops, func(gen string) []byte { return logBytes(gen, ops[:1]) }, nil, 2, ErrLogChanged},
		{"frame added", ops, func(gen string) []byte {
			return logBytes(gen, append(slices.Clone(ops), wal.Op{Kind: wal.OpUndelete, Rec: 0}))
		}, nil, 4, ErrLogChanged},
		{"frame added to an empty log", nil, func(gen string) []byte { return logBytes(gen, ops[:1]) }, nil, 1, ErrLogChanged},
		{"header changed", ops, func(string) []byte { return logBytes("gen-999999", ops) }, nil, 1, ErrLogChanged},
		{"read fails", ops, nil, injected, 1, injected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			gens := saveReplayBase(t, dir, 2)
			writeShardLog(t, dir, 0, 2, gens[0], ops[:1])
			writeShardLog(t, dir, 1, 2, gens[1], tc.logged)
			fs := &secondReadFS{FS: fsio.OS(), t: t, path: walPath(dir, 1, 2), failRead: tc.fail}
			if tc.swap != nil {
				fs.swap = tc.swap(gens[1])
			}
			_, err := LoadFS(fs, dir)
			var re *ReplayError
			if !errors.As(err, &re) || re.Shard != 1 || re.LSN != tc.lsn || !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want shard 1's ReplayError at LSN %d wrapping %v", err, tc.lsn, tc.want)
			}
			if fs.stats != 2 || fs.opens != 2 {
				t.Fatalf("the log was stat'd %d and opened %d times, want twice each", fs.stats, fs.opens)
			}
		})
	}
}

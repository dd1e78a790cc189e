package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"grove/internal/fsio"
	"grove/internal/graph"
)

// scanOps reads the log at path through a Reader and returns its summary and
// every op of the valid prefix, each copied out of the reader's reused
// memory. It fails the test unless the reader numbers node names one to
// one across the log.
func scanOps(tb testing.TB, path string) (*ScanResult, []Op) {
	tb.Helper()
	r, err := NewReader(fsio.OS(), path)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	var ops []Op
	names, numbers := map[int32]string{}, map[string]int32{}
	same := func(n int32, name string) bool {
		if _, ok := names[n]; !ok {
			names[n] = name
		}
		if _, ok := numbers[name]; !ok {
			numbers[name] = n
		}
		return names[n] == name && numbers[name] == n
	}
	for {
		op, err := r.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if op == nil {
			return r.Result(), ops
		}
		if op.Kind == OpAddRecord {
			from, to := r.Nodes()
			for i, k := range op.Row.Keys {
				if !same(from[i], k.From) || !same(to[i], k.To) {
					tb.Fatalf("LSN %d: key %v numbered %d→%d, not one number per name", op.LSN, k, from[i], to[i])
				}
			}
		}
		ops = append(ops, cloneOp(op))
	}
}

// checkRow is replay's row check, graph.Row.CheckNodes, with the row's node
// names numbered here.
func checkRow(row *graph.Row) error {
	numbers := map[string]int32{}
	number := func(name string) int32 {
		n, ok := numbers[name]
		if !ok {
			n = int32(len(numbers))
			numbers[name] = n
		}
		return n
	}
	from, to := make([]int32, len(row.Keys)), make([]int32, len(row.Keys))
	for i, k := range row.Keys {
		from[i], to[i] = number(k.From), number(k.To)
	}
	return row.CheckNodes(from, to, new(graph.Cycles))
}

// cloneOp copies op out of a decoder's reused memory.
func cloneOp(op *Op) Op {
	c := *op
	if op.Row != nil {
		c.Row = &graph.Row{Keys: slices.Clone(op.Row.Keys), Cells: slices.Clone(op.Row.Cells)}
		for i := range c.Row.Cells {
			c.Row.Cells[i].Named = slices.Clone(c.Row.Cells[i].Named)
		}
	}
	return c
}

// wholeFileDecode is the reference the Reader is held to: the log read into
// one buffer and every frame of it decoded in place, as Scan did before it
// streamed, each into fresh op, row and slab state, so that a frame the
// Reader decodes over its predecessor's leftovers differs from it.
func wholeFileDecode(b []byte) (*ScanResult, []Op) {
	res := &ScanResult{FileSize: int64(len(b))}
	h, hlen, err := decodeHeader(b)
	if err != nil {
		res.HeaderErr = err.Error()
		if errors.Is(err, ErrUnsupportedVersion) {
			res.Header, res.VersionErr = h, err
		}
		return res, nil
	}
	res.Header, res.HeaderOK, res.NextLSN, res.GoodSize = h, true, h.BaseLSN, int64(hlen)
	var ops []Op
	x := newDecoder()
	for off := hlen; off < len(b); {
		x.op, x.row, x.named, x.from, x.to = Op{}, graph.Row{}, nil, nil, nil
		op, size, ok, reason := x.decodeFrame(b[off:], res.NextLSN)
		if !ok {
			res.TornReason = reason
			break
		}
		ops = append(ops, cloneOp(op))
		res.Kinds[op.Kind]++
		res.NextLSN++
		off += size
		res.GoodSize = int64(off)
	}
	res.Dict = x.keys
	return res, ops
}

// requireReaderMatches writes data as a log and fails the test unless the
// Reader yields what the whole-file decode of the same bytes does.
func requireReaderMatches(t *testing.T, label string, data []byte) {
	t.Helper()
	p := filepath.Join(t.TempDir(), FileName)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, gotOps := scanOps(t, p)
	want, wantOps := wholeFileDecode(data)
	want.Path = p
	if !reflect.DeepEqual(gotOps, wantOps) {
		t.Fatalf("%s: the reader decoded %d ops, the whole-file decode %d, or they differ", label, len(gotOps), len(wantOps))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: reader summary\n%+v\nwhole-file decode\n%+v", label, got, want)
	}
}

// TestReaderMatchesWholeFileDecode holds the streaming Reader to the
// whole-file decode on the logs TestLogBytesPinned pins (testdata/pinned,
// checked against its hashes here), on each of them torn at every byte of
// its last frame and with its last frame's CRC broken, and on a log larger
// than the window: many frames, so frames straddle every refill, then one
// frame of 2.5 windows, so the window grows — whole and torn inside it.
// FuzzWALReplay runs the same comparison on its seeds and inputs.
func TestReaderMatchesWholeFileDecode(t *testing.T) {
	pinned := map[int]string{
		1: "c8bb2fb1b677b109b76fe56ef6bbe169aea27e9d7cffa4cb20bbb214375c8efc",
		3: "6b1966b9f1bf8b8b205faa4ec9e3a38fc7b3c664a2f1f949800c88b63da6a6e1",
	}
	var logs [][]byte
	for _, n := range []int{1, 3} {
		var all []byte
		for s := 0; s < n; s++ {
			b, err := os.ReadFile(filepath.Join("testdata", "pinned", fmt.Sprintf("n%d-shard%d.log", n, s)))
			if err != nil {
				t.Fatal(err)
			}
			all = fmt.Appendf(all, "shard %d: %d bytes\n", s, len(b))
			all = append(all, b...)
			logs = append(logs, b)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(all)); got != pinned[n] {
			t.Fatalf("testdata/pinned N=%d hashes to %s, not TestLogBytesPinned's %s", n, got, pinned[n])
		}
	}
	for i, b := range logs {
		res, _ := wholeFileDecode(b)
		if !res.HeaderOK || res.TornBytes() != 0 || res.NumOps() == 0 {
			t.Fatalf("pinned log %d: %+v", i, res)
		}
		requireReaderMatches(t, fmt.Sprintf("pinned log %d", i), b)
		last := lastFrameStart(t, b)
		for cut := last; cut < len(b); cut++ {
			requireReaderMatches(t, fmt.Sprintf("pinned log %d torn at %d", i, cut), b[:cut])
		}
		bad := slices.Clone(b)
		bad[last+4] ^= 1
		requireReaderMatches(t, fmt.Sprintf("pinned log %d, last CRC broken", i), bad)
	}

	// Many small frames past the window, then one frame 2.5 times its size.
	path := filepath.Join(t.TempDir(), FileName)
	l, err := Create(fsio.OS(), path, 0, "gen-000001", 1, Config{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rec := graph.NewRecord()
	for i := 0; i < 40; i++ {
		if err := rec.SetEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*readWindow/(40*9); i++ {
		if _, err := l.Append(Op{Kind: OpAddRecord, Record: rec}); err != nil {
			t.Fatal(err)
		}
	}
	big := graph.NewRecord()
	for i := 0; i < readWindow/9; i++ {
		if err := big.SetEdge("hub", fmt.Sprintf("m%06d", i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append(Op{Kind: OpAddRecord, Record: big}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 4*readWindow {
		t.Fatalf("the log is %d bytes, not past the window", len(b))
	}
	requireReaderMatches(t, "large log", b)
	requireReaderMatches(t, "large log torn in its big frame", b[:len(b)-readWindow])
}

// lastFrameStart returns the offset of the last frame of a clean log.
func lastFrameStart(t *testing.T, b []byte) int {
	t.Helper()
	_, off, err := decodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	last := off
	for off < len(b) {
		last = off
		off += frameHeadLen + int(binary.LittleEndian.Uint32(b[off:]))
	}
	return last
}

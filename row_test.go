package grove

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"grove/internal/agg"
	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
	"grove/internal/shard"
	"grove/internal/wal"
)

// pinnedCorpus is a fixed 200-record corpus that exercises every payload
// shape the log encodes: default measures (±0, ±MaxFloat64, denormals among
// them), bare elements, node elements, named measures, and — over a
// 12-node universe — plenty of cycles, which are logged raw and flattened at
// apply time.
func pinnedCorpus(t testing.TB) []*graph.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(20260926))
	special := []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 5e-324, -2.5e-310, 1.5}
	recs := make([]*graph.Record, 200)
	for i := range recs {
		rec := graph.NewRecord()
		for j, n := 0, 1+rng.Intn(24); j < n; j++ {
			k := graph.E(fmt.Sprintf("n%d", rng.Intn(12)), fmt.Sprintf("n%d", rng.Intn(12)))
			v := rng.NormFloat64() * 100
			if rng.Intn(5) == 0 {
				v = special[rng.Intn(len(special))]
			}
			var err error
			switch rng.Intn(5) {
			case 0:
				rec.AddBareElement(k)
			case 1:
				err = rec.SetElementNamed(k, []string{"cost", "time"}[rng.Intn(2)], v)
			default:
				err = rec.SetElement(k, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		recs[i] = rec
	}
	return recs
}

// TestLogBytesPinned pins the bytes the log writes for a fixed input. The
// hashes were taken when the log format became version 2, which names each
// element by its index in the log's key dictionary where version 1 spelled
// it out: the input is the one the version-1 hashes were taken on, the
// format is new. TestReplayedSnapshotPinned holds what a replay of either
// format recovers to the same bytes.
func TestLogBytesPinned(t *testing.T) {
	want := map[int]string{
		1: "c8bb2fb1b677b109b76fe56ef6bbe169aea27e9d7cffa4cb20bbb214375c8efc",
		3: "6b1966b9f1bf8b8b205faa4ec9e3a38fc7b3c664a2f1f949800c88b63da6a6e1",
	}
	recs := pinnedCorpus(t)
	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		c := shard.New(n, 0)
		if err := c.AttachWALFS(fsio.OS(), dir, wal.Config{Policy: wal.SyncNever}); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := c.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		dirs, _, err := shard.ShardDirs(dir)
		if err != nil || len(dirs) != n {
			t.Fatalf("N=%d: shard dirs %v, err %v", n, dirs, err)
		}
		h := sha256.New()
		for s, d := range dirs {
			b, err := os.ReadFile(filepath.Join(d, wal.FileName))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "shard %d: %d bytes\n", s, len(b))
			h.Write(b)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[n] {
			t.Errorf("N=%d: log bytes hash %s, want %s", n, got, want[n])
		}
	}
}

// TestReplayedSnapshotPinned: a store recovered from its log saves the same
// bytes whatever the log's format. The pinned corpus is appended to a
// logged store with every other op kind mixed in — append-edges naming
// elements no record has, tags, deletes and undeletes — and the store is
// closed, loaded (the whole state comes back by replay) and saved into a
// fresh directory. The hashes were taken by running this test's body at
// 3239f01, whose log spelled every element out by name; ids, registry and
// columns must come back byte-identical from the key-dictionary log.
func TestReplayedSnapshotPinned(t *testing.T) {
	want := map[int]string{
		1: "a9df20d37e2f46a9c0230e5d67051f71278249fdba214a709c10fd3478025c79",
		3: "55219aa0fd8c7e9da9a7157aea6e00228bb055316cc9d73ccdbf872e2151d417",
	}
	recs := pinnedCorpus(t)
	for _, n := range []int{1, 3} {
		dir := t.TempDir()
		c := shard.New(n, 0)
		if err := c.AttachWALFS(fsio.OS(), dir, wal.Config{Policy: wal.SyncNever}); err != nil {
			t.Fatal(err)
		}
		ops := 0
		for i, rec := range recs {
			g, err := c.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			ops++
			prev := g / 2
			switch {
			case i%7 == 3:
				err = c.AppendEdge(prev, fmt.Sprintf("n%d", i%12), fmt.Sprintf("x%d", i%5), "", float64(i)/4, true)
			case i%7 == 5:
				err = c.AppendEdge(prev, fmt.Sprintf("y%d", i%3), fmt.Sprintf("y%d", i%3), "cost", -float64(i), true)
			case i%11 == 4:
				err = c.Tag(g, "kind", fmt.Sprint(i%3))
			case i%13 == 6:
				_, err = c.Delete(prev)
			case i%17 == 8:
				_, err = c.Delete(g)
				if err == nil {
					c.Undelete(g)
					ops++
				}
			default:
				ops--
			}
			if err != nil {
				t.Fatal(err)
			}
			ops++
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		loaded, err := shard.LoadFS(fsio.OS(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.WALStats().ReplayedOps; got != int64(ops) {
			t.Fatalf("N=%d: replayed %d ops, logged %d", n, got, ops)
		}
		out := t.TempDir()
		if err := loaded.SaveFS(fsio.OS(), out); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}
		files := treeBytes(t, out)
		paths := make([]string, 0, len(files))
		for p := range files {
			paths = append(paths, p)
		}
		slices.Sort(paths)
		h := sha256.New()
		for _, p := range paths {
			fmt.Fprintf(h, "%s: %d bytes\n", p, len(files[p]))
			h.Write([]byte(files[p]))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[n] {
			t.Errorf("N=%d: recovered snapshot hash %s, want %s", n, got, want[n])
		}
	}
}

// naiveLoadRecord is an element-at-a-time loader, kept as the reference the
// row path is held to: flatten if cyclic, append an empty record, then add
// each element in sorted order, and each of its named measures, through
// AppendEdge — one lock section and one round of view upkeep per call.
func naiveLoadRecord(t *testing.T, rel *colstore.Relation, reg *graph.Registry, rec *graph.Record) uint32 {
	t.Helper()
	if rec.HasCycle() {
		rec = graph.FlattenToDAG(rec)
	}
	id := rel.AppendRow(nil)
	names := rec.MeasureNames()
	for _, k := range rec.Elements() {
		eid := reg.ID(k)
		m := rec.Measure(k)
		if err := rel.AppendEdge(id, eid, "", m.Value, m.Valid); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if m := rec.MeasureNamed(k, name); m.Valid {
				if err := rel.AppendEdge(id, eid, name, m.Value, true); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return id
}

// sameColumn reports whether two measure columns hold the same records with
// bit-identical values (nil = absent).
func sameColumn(a, b *colstore.MeasureColumn) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !a.Present().Equals(b.Present()) {
		return false
	}
	var av, bv []uint64
	a.ForEach(func(_ uint32, v float64) bool { av = append(av, math.Float64bits(v)); return true })
	b.ForEach(func(_ uint32, v float64) bool { bv = append(bv, math.Float64bits(v)); return true })
	return slices.Equal(av, bv)
}

// TestRowAppendMatchesElementwiseLoad is the row-vs-record differential: the
// pinned corpus goes encode → log file → wal.Reader → graph.AppendRow into one
// relation and through naiveLoadRecord into its twin, both maintaining the
// same graph and aggregate views; afterwards the registries, every bitmap and
// measure column (default and named) and every view must be bit-identical.
func TestRowAppendMatchesElementwiseLoad(t *testing.T) {
	recs := pinnedCorpus(t)
	path := filepath.Join(t.TempDir(), wal.FileName)
	l, err := wal.Create(fsio.OS(), path, 0, "", 1, wal.Config{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := l.Append(wal.Op{Kind: wal.OpAddRecord, Record: rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := wal.NewReader(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type twin struct {
		rel *colstore.Relation
		reg *graph.Registry
	}
	row, ref := twin{colstore.NewRelation(0), graph.NewRegistry()}, twin{colstore.NewRelation(0), graph.NewRegistry()}
	for _, tw := range []twin{row, ref} {
		for v := 0; v < 12; v++ {
			p := []colstore.EdgeID{
				tw.reg.ID(graph.E(fmt.Sprintf("n%d", v), fmt.Sprintf("n%d", (v+1)%12))),
				tw.reg.ID(graph.E(fmt.Sprintf("n%d", (v+1)%12), fmt.Sprintf("n%d", (v+5)%12))),
			}
			if _, err := tw.rel.MaterializeView(fmt.Sprintf("g%d", v), p); err != nil {
				t.Fatal(err)
			}
			if _, err := tw.rel.MaterializeAggViewOn(fmt.Sprintf("a%d", v), p, agg.Sum, []string{"", "cost"}[v%2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cyclic := 0
	for i, rec := range recs {
		if rec.HasCycle() {
			cyclic++
		}
		op, err := r.Next()
		if err != nil || op == nil {
			t.Fatalf("frame %d: op %v, err %v", i, op, err)
		}
		if op.Record != nil {
			t.Fatal("the decoder filled Op.Record")
		}
		got, want := graph.AppendRow(row.rel, row.reg, op.Row), naiveLoadRecord(t, ref.rel, ref.reg, rec)
		if got != want {
			t.Fatalf("record %d: row path id %d, reference id %d", i, got, want)
		}
	}
	if op, err := r.Next(); op != nil || err != nil || r.Result().TornBytes() != 0 {
		t.Fatalf("past the corpus: op %v, err %v, %d torn bytes", op, err, r.Result().TornBytes())
	}
	if cyclic < 20 || cyclic > 180 {
		t.Fatalf("%d of %d corpus records are cyclic: both paths must be covered", cyclic, len(recs))
	}

	if row.reg.Len() != ref.reg.Len() {
		t.Fatalf("registry: %d keys vs %d", row.reg.Len(), ref.reg.Len())
	}
	names := ref.rel.MeasureNames()
	if !slices.Equal(row.rel.MeasureNames(), names) {
		t.Fatalf("measure names %v vs %v", row.rel.MeasureNames(), names)
	}
	hits := 0
	for id := colstore.EdgeID(0); int(id) < ref.reg.Len(); id++ {
		a, _ := row.reg.Key(id)
		b, _ := ref.reg.Key(id)
		if a != b {
			t.Fatalf("edge id %d names %v vs %v", id, a, b)
		}
		ab, bb := row.rel.EdgeBitmap(id), ref.rel.EdgeBitmap(id)
		if (ab == nil) != (bb == nil) || ab != nil && !ab.Equals(bb) {
			t.Fatalf("bitmap column of %v differs", a)
		}
		for _, name := range append([]string{""}, names...) {
			if !sameColumn(row.rel.MeasureColumnNamed(id, name), ref.rel.MeasureColumnNamed(id, name)) {
				t.Fatalf("measure column %q of %v differs", name, a)
			}
		}
	}
	for i, v := range ref.rel.Views() {
		if got := row.rel.Views()[i]; got.Name != v.Name || !got.Col.Bits().Equals(v.Col.Bits()) {
			t.Fatalf("graph view %s differs", v.Name)
		}
		hits += v.Col.Cardinality()
	}
	for i, v := range ref.rel.AggViews() {
		got := row.rel.AggViews()[i]
		if got.Name != v.Name || !got.Col.Bits().Equals(v.Col.Bits()) || !sameColumn(got.Measure, v.Measure) {
			t.Fatalf("aggregate view %s differs", v.Name)
		}
		hits += v.Col.Cardinality()
	}
	if hits == 0 {
		t.Fatal("no record entered any view: maintenance went unexercised")
	}
}

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

// TestLogBytesPinned: the flat-row codec writes, for the same input, the very
// bytes the map-walking encoder of commit 8591ddf wrote. The hashes below
// were taken by running this test's body at that commit, and re-taken once
// when Append began to log the normalized row it applies: the corpus's
// cyclic records are logged flattened (§6.2), while the log of its acyclic
// records alone hashes as it did at 8591ddf.
func TestLogBytesPinned(t *testing.T) {
	want := map[int]string{
		1: "9e9d7cfb9ea963af741e0255991de07193fbfd519d2747b04076c292f8a13dfd",
		3: "767bfbade6a433d3a1d14278f28772e36ac1fb505b30a4f42d73890f05566d8f",
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
// pinned corpus goes encode → log file → Scan → graph.AppendRow into one
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
	res, err := wal.Scan(fsio.OS(), path)
	if err != nil || len(res.Ops) != len(recs) || res.TornBytes() != 0 {
		t.Fatalf("scan: %d ops, %d torn bytes, err %v", len(res.Ops), res.TornBytes(), err)
	}

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
		if res.Ops[i].Record != nil {
			t.Fatal("the decoder filled Op.Record")
		}
		got, want := graph.AppendRow(row.rel, row.reg, res.Ops[i].Row), naiveLoadRecord(t, ref.rel, ref.reg, rec)
		if got != want {
			t.Fatalf("record %d: row path id %d, reference id %d", i, got, want)
		}
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

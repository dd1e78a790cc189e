package colstore

import (
	"math/rand"
	"testing"
)

// benchColumn builds a measure column with ~density fraction of numRecords
// present.
func benchColumn(numRecords int, density float64, seed int64) *MeasureColumn {
	rng := rand.New(rand.NewSource(seed))
	c := NewMeasureColumn()
	for rec := 0; rec < numRecords; rec++ {
		if rng.Float64() < density {
			c.Set(uint32(rec), rng.Float64())
		}
	}
	return c
}

func benchAnswer(numRecords, n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint32]struct{}, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := uint32(rng.Intn(numRecords))
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sortU32(out)
	return out
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// BenchmarkValuesForMerge vs BenchmarkValuesForGets: the batched merge
// access path against per-record point lookups (the ablation behind
// MeasureColumn.ValuesFor's hybrid).
func BenchmarkValuesForMerge(b *testing.B) {
	c := benchColumn(100000, 0.1, 1)
	recs := benchAnswer(100000, 5000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ValuesFor(recs)
	}
}

func BenchmarkValuesForGets(b *testing.B) {
	c := benchColumn(100000, 0.1, 1)
	recs := benchAnswer(100000, 5000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			c.Get(rec)
		}
	}
}

func BenchmarkMeasureColumnSetSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewMeasureColumn()
		for rec := uint32(0); rec < 10000; rec++ {
			c.Set(rec, float64(rec))
		}
	}
}

func BenchmarkMaterializeView(b *testing.B) {
	r := NewRelation(0)
	rng := rand.New(rand.NewSource(4))
	for rec := 0; rec < 20000; rec++ {
		id := r.NewRecord()
		for j := 0; j < 30; j++ {
			r.SetEdgeMeasure(id, EdgeID(rng.Intn(500)), 1)
		}
	}
	edges := []EdgeID{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := "v" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
		if _, err := r.MaterializeView(name, edges); err != nil {
			b.Fatal(err)
		}
		r.DropView(name)
	}
}

func BenchmarkUpdateViewsForRecord(b *testing.B) {
	r := NewRelation(0)
	rng := rand.New(rand.NewSource(5))
	for rec := 0; rec < 1000; rec++ {
		id := r.NewRecord()
		for j := 0; j < 30; j++ {
			r.SetEdgeMeasure(id, EdgeID(rng.Intn(200)), 1)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := r.MaterializeView("v"+string(rune('a'+i)), []EdgeID{EdgeID(i), EdgeID(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := r.NewRecord()
		for j := 0; j < 30; j++ {
			r.SetEdgeMeasure(id, EdgeID(rng.Intn(200)), 1)
		}
		r.UpdateViewsForRecord(id)
	}
}

// BenchmarkPageFault times one page fault per iteration — read, decode and
// frame turnover of one 4096-value block — for each block encoding: a
// two-block column behind a one-block pool, its blocks faulted in turn. The
// ns/value column is what the encoder's choice rule prices: raw decodes at
// about a tenth of the uvarint encodings' cost per value.
func BenchmarkPageFault(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, bc := range []struct {
		name  string
		value func(i int) float64
	}{
		{"raw", func(int) float64 { return rng.Float64() * 100 }},
		{"xor", func(i int) float64 { return float64(1<<20 + i) }},
		{"dict", func(i int) float64 { return float64(i%16) * 1.25 }},
		{"rle", func(i int) float64 { return float64(i / 512) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRelation(0)
			for i := 0; i < 2*BlockValues; i++ {
				r.SetEdgeMeasure(r.NewRecord(), 1, bc.value(i))
			}
			col := reloadPaged(b, r, 8*BlockValues).MeasureColumn(1)
			for tag, n := range col.BlockEncodings() {
				if n != 0 && EncodingName(tag) != bc.name {
					b.Fatalf("fixture %q encoded %d blocks as %q; fix the fixture", bc.name, n, EncodingName(tag))
				}
			}
			p := col.paged
			p.pool.Unpin(p.pageIn(0))
			p.pool.Unpin(p.pageIn(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := p.pageIn(i & 1)
				if f == nil {
					b.Fatal(col.pageError())
				}
				p.pool.Unpin(f)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/BlockValues, "ns/value")
			if s := p.pool.Stats(); s.Hits != 0 {
				b.Fatalf("%d pool hits: the loop did not fault every block", s.Hits)
			}
		})
	}
}

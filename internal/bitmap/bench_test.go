package bitmap

import (
	"math/bits"
	"math/rand"
	"testing"
)

// naiveBitset is the ablation baseline: a flat, uncompressed []uint64
// bitset, what the paper calls the "naive uncompressed representation" of a
// bitmap column (§5.1).
type naiveBitset struct {
	words []uint64
}

func newNaiveBitset(n int) *naiveBitset {
	return &naiveBitset{words: make([]uint64, (n+63)/64)}
}

func (b *naiveBitset) set(v uint32) { b.words[v>>6] |= 1 << (v & 63) }

func (b *naiveBitset) and(o *naiveBitset) *naiveBitset {
	out := &naiveBitset{words: make([]uint64, len(b.words))}
	for i := range out.words {
		out.words[i] = b.words[i] & o.words[i]
	}
	return out
}

func (b *naiveBitset) cardinality() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// sparse fixture: 1M-record space, ~0.1% density — the regime of grove's
// edge bitmaps.
func sparseFixture(seed int64) (*Bitmap, *naiveBitset) {
	rng := rand.New(rand.NewSource(seed))
	rb := New()
	nb := newNaiveBitset(1 << 20)
	for i := 0; i < 1000; i++ {
		v := uint32(rng.Intn(1 << 20))
		rb.Add(v)
		nb.set(v)
	}
	rb.Optimize()
	return rb, nb
}

func BenchmarkAndRoaringSparse(b *testing.B) {
	x, _ := sparseFixture(1)
	y, _ := sparseFixture(2)
	b.ReportMetric(float64(x.SizeBytes()), "bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.And(y).Cardinality() > 1000 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkAndNaiveSparse(b *testing.B) {
	_, x := sparseFixture(1)
	_, y := sparseFixture(2)
	b.ReportMetric(float64(8*len(x.words)), "bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.and(y).cardinality() > 1000 {
			b.Fatal("impossible")
		}
	}
}

func denseFixture(seed int64) (*Bitmap, *naiveBitset) {
	rng := rand.New(rand.NewSource(seed))
	rb := New()
	nb := newNaiveBitset(1 << 20)
	for i := 0; i < 1<<19; i++ {
		v := uint32(rng.Intn(1 << 20))
		rb.Add(v)
		nb.set(v)
	}
	rb.Optimize()
	return rb, nb
}

func BenchmarkAndRoaringDense(b *testing.B) {
	x, _ := denseFixture(1)
	y, _ := denseFixture(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkAndNaiveDense(b *testing.B) {
	_, x := denseFixture(1)
	_, y := denseFixture(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.and(y)
	}
}

func BenchmarkAddSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bm := New()
		for v := uint32(0); v < 10000; v++ {
			bm.Add(v)
		}
	}
}

func BenchmarkAddRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	values := make([]uint32, 10000)
	for i := range values {
		values[i] = uint32(rng.Intn(1 << 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm := New()
		for _, v := range values {
			bm.Add(v)
		}
	}
}

func BenchmarkAndAll100(b *testing.B) {
	bitmaps := make([]*Bitmap, 100)
	for i := range bitmaps {
		bitmaps[i], _ = sparseFixture(int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndAll(bitmaps...)
	}
}

func BenchmarkRank(b *testing.B) {
	bm, _ := denseFixture(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Rank(uint32(i) % (1 << 20))
	}
}

func BenchmarkSerialize(b *testing.B) {
	bm, _ := denseFixture(9)
	var buf discardCounter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.n = 0
		if _, err := bm.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(buf.n)
}

type discardCounter struct{ n int64 }

func (d *discardCounter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

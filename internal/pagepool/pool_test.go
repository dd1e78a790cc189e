package pagepool

import (
	"fmt"
	"sync"
	"testing"
)

// put faults one block of n values, all equal to fill, into the pool the way
// colstore does on a miss — reserve, fill, publish — and unpins it.
func put(p *Pool, k Key, n int, fill float64) {
	p.Unpin(putPinned(p, k, n, fill))
}

func putPinned(p *Pool, k Key, n int, fill float64) *Frame {
	f := p.Reserve(n)
	for i := range f.Vals {
		f.Vals[i] = fill
	}
	return p.Publish(k, f)
}

// pinned counts the cached frames some reader holds right now.
func pinned(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.ring {
		if f.pins.Load() > 0 {
			n++
		}
	}
	return n
}

// cached reports whether k is in the pool, without leaving it pinned.
func cached(p *Pool, k Key) bool {
	f := p.Pin(k)
	if f != nil {
		p.Unpin(f)
	}
	return f != nil
}

func TestPinMissThenHit(t *testing.T) {
	p := New(1 << 20)
	k := Key{Col: 1, Block: 0}
	if got := p.Pin(k); got != nil {
		t.Fatalf("expected miss, got %v", got.Vals)
	}
	want := putPinned(p, k, 16, 3.5)
	got := p.Pin(k)
	if got != want || len(got.Vals) != 16 || got.Vals[15] != 3.5 {
		t.Fatalf("expected the published frame back")
	}
	if s := p.Stats(); s.Hits != 1 || s.Misses != 1 || pinned(p) != 1 {
		t.Fatalf("hits=%d misses=%d pinned=%d, want 1/1/1", s.Hits, s.Misses, pinned(p))
	}
	p.Unpin(got)
	p.Unpin(want)
	if n := pinned(p); n != 0 {
		t.Fatalf("%d blocks pinned after both readers unpinned", n)
	}
}

func TestPublishDuplicateKeepsFirst(t *testing.T) {
	p := New(1 << 20)
	k := Key{Col: 7, Block: 3}
	a := putPinned(p, k, 8, 1)
	b := putPinned(p, k, 8, 2)
	if b != a || b.Vals[0] != 1 {
		t.Fatalf("a duplicate Publish must return the already-cached frame")
	}
	if s := p.Stats(); s.ResidentBlocks != 1 || s.ResidentBytes != 64 {
		t.Fatalf("resident = %d blocks, %d bytes; want 1 block of 64 bytes", s.ResidentBlocks, s.ResidentBytes)
	}
	p.Unpin(a)
	p.Unpin(b)
}

func TestBudgetEviction(t *testing.T) {
	// Budget fits exactly two 128-value blocks (1024 bytes each).
	p := New(2048)
	for i := uint32(0); i < 10; i++ {
		put(p, Key{Col: 1, Block: i}, 128, float64(i))
	}
	s := p.Stats()
	if s.ResidentBytes > 2048 {
		t.Fatalf("resident %d bytes over budget 2048", s.ResidentBytes)
	}
	if s.ResidentBlocks == 0 {
		t.Fatalf("pool must keep at least one block")
	}
	if s.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8", s.Evictions)
	}
}

// TestEvictionRecyclesBuffers: a pool at its budget serves a fault from the
// buffer of the frame it evicts when the block fills at least half of it, and
// charges the buffer's capacity, not the block's length, to the budget. A
// block shorter than that gets a buffer of its own and the victim's is let go.
func TestEvictionRecyclesBuffers(t *testing.T) {
	p := New(128 * 8) // one 128-value block
	first := putPinned(p, Key{Col: 1}, 128, 1)
	buf := &first.Vals[0]
	p.Unpin(first)
	for i, n := range []int{128, 64, 128, 100, 70} {
		f := putPinned(p, Key{Col: 2, Block: uint32(i)}, n, 2)
		if len(f.Vals) != n || &f.Vals[0] != buf {
			t.Fatalf("fault %d (%d values) was not served from the evicted frame's buffer", i, n)
		}
		p.Unpin(f)
		if s := p.Stats(); s.ResidentBlocks != 1 || s.ResidentBytes != 128*8 {
			t.Fatalf("fault %d: %d blocks, %d bytes resident; want 1 block charged its full 1024-byte buffer", i, s.ResidentBlocks, s.ResidentBytes)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		put(p, Key{Col: 3}, 64, 3)
		put(p, Key{Col: 4}, 128, 4)
	})
	if allocs != 0 {
		t.Fatalf("a fault in a pool at its budget allocates %v times, want 0", allocs)
	}

	short := putPinned(p, Key{Col: 5}, 63, 5)
	if &short.Vals[0] == buf || cap(short.Vals) != 63 {
		t.Fatalf("a 63-value block was put in a buffer of %d values; a recycled buffer may be at most twice its block", cap(short.Vals))
	}
	p.Unpin(short)
	if s := p.Stats(); s.ResidentBlocks != 1 || s.ResidentBytes != 63*8 {
		t.Fatalf("%d blocks, %d bytes resident; want the one 504-byte block", s.ResidentBlocks, s.ResidentBytes)
	}
}

func TestClockSecondChance(t *testing.T) {
	// Three-block budget. Freshly published frames all carry reference bits,
	// so the very first sweep degenerates to FIFO — run one warm-up fault to
	// clear them, then keep re-referencing one hot block: the clock must
	// spare it on every later sweep while the cold blocks rotate out.
	p := New(3 * 128 * 8)
	hot := Key{Col: 1, Block: 1}
	put(p, Key{Col: 1, Block: 0}, 128, 0)
	put(p, hot, 128, 1)
	put(p, Key{Col: 1, Block: 2}, 128, 2)
	put(p, Key{Col: 2, Block: 0}, 128, 9) // warm-up sweep
	if !cached(p, hot) {
		t.Fatalf("hot block lost in warm-up; it was not first in FIFO order")
	}
	for n := uint32(1); n < 5; n++ {
		put(p, Key{Col: 2, Block: n}, 128, 9)
		if !cached(p, hot) {
			t.Fatalf("hot block was evicted despite reference bit (round %d)", n)
		}
	}
}

func TestSetBudgetShrinks(t *testing.T) {
	p := New(0) // unbounded
	for i := uint32(0); i < 8; i++ {
		put(p, Key{Col: 1, Block: i}, 128, 0)
	}
	if s := p.Stats(); s.ResidentBlocks != 8 {
		t.Fatalf("unbounded pool evicted: %d blocks", s.ResidentBlocks)
	}
	p.SetBudget(2 * 128 * 8)
	if s := p.Stats(); s.ResidentBytes > 2*128*8 {
		t.Fatalf("SetBudget did not evict down: %d bytes", s.ResidentBytes)
	}
}

func TestInvalidateColumn(t *testing.T) {
	p := New(0)
	for i := uint32(0); i < 4; i++ {
		put(p, Key{Col: 1, Block: i}, 8, 0)
		put(p, Key{Col: 2, Block: i}, 8, 0)
	}
	p.InvalidateColumn(1)
	for i := uint32(0); i < 4; i++ {
		if cached(p, Key{Col: 1, Block: i}) {
			t.Fatalf("col 1 block %d survived invalidation", i)
		}
		if !cached(p, Key{Col: 2, Block: i}) {
			t.Fatalf("col 2 block %d was wrongly dropped", i)
		}
	}
	if s := p.Stats(); s.ResidentBytes != 4*8*8 {
		t.Fatalf("%d bytes resident after invalidating half of 8 blocks", s.ResidentBytes)
	}
}

func TestAbandonReturnsTheCharge(t *testing.T) {
	p := New(0)
	f := p.Reserve(128)
	if s := p.Stats(); s.ResidentBytes != 128*8 {
		t.Fatalf("a reserved frame is charged %d bytes, want %d", s.ResidentBytes, 128*8)
	}
	p.Abandon(f)
	if s := p.Stats(); s.ResidentBytes != 0 || s.ResidentBlocks != 0 {
		t.Fatalf("%d bytes, %d blocks resident after Abandon", s.ResidentBytes, s.ResidentBlocks)
	}
}

// TestConcurrentAccess: readers fault, hold and check blocks while eviction
// recycles buffers under them. Every block is filled with its own key's
// value, so a buffer recycled while a reader still has it pinned shows up as
// a wrong value (and as a data race under -race).
func TestConcurrentAccess(t *testing.T) {
	p := New(64 * 128 * 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Col: uint64(g % 3), Block: uint32(i % 200)}
				want := float64(k.Col*1000 + uint64(k.Block))
				f := p.Pin(k)
				if f == nil {
					f = putPinned(p, k, 64+int(k.Block)%65, want)
				}
				for _, v := range f.Vals {
					if v != want {
						t.Errorf("block %v holds %v while pinned, want %v", k, v, want)
						break
					}
				}
				p.Unpin(f)
			}
		}(g)
	}
	wg.Wait()
	s := p.Stats()
	if s.ResidentBytes > 64*128*8 {
		t.Fatalf("over budget after concurrent load: %d", s.ResidentBytes)
	}
	if n := pinned(p); n != 0 {
		t.Fatalf("%d blocks still pinned after every reader unpinned", n)
	}
}

// TestPinnedBlockSurvivesPressure is the pool's safety contract: a pinned
// block stays cached and intact under any eviction pressure, a budget cut or
// an invalidation of its column; its buffer is recycled only after the unpin.
func TestPinnedBlockSurvivesPressure(t *testing.T) {
	p := New(128 * 8) // single-block budget
	k0 := Key{Col: 1, Block: 0}
	held := putPinned(p, k0, 128, 42)
	buf := &held.Vals[0]
	intact := func(when string) {
		t.Helper()
		for i, v := range held.Vals {
			if v != 42 {
				t.Fatalf("held[%d] = %v %s; a pinned block must stay intact", i, v, when)
			}
		}
	}
	for i := uint32(1); i < 5; i++ {
		f := putPinned(p, Key{Col: 2, Block: i}, 128, 0)
		if &f.Vals[0] == buf {
			t.Fatalf("fault %d was handed the pinned block's buffer", i)
		}
		p.Unpin(f)
	}
	intact("after four faults through a one-block pool")
	if s := p.Stats(); s.ResidentBlocks != 2 || pinned(p) != 1 {
		t.Fatalf("%d blocks resident, %d pinned; want the pinned block plus one block of overshoot", s.ResidentBlocks, pinned(p))
	}
	p.SetBudget(1)
	intact("after SetBudget(1)")
	if s := p.Stats(); s.ResidentBlocks != 1 || pinned(p) != 1 {
		t.Fatalf("SetBudget(1) left %d blocks, %d pinned; want only the pinned one", s.ResidentBlocks, pinned(p))
	}
	if f := p.Pin(k0); f != held {
		t.Fatalf("the pinned block is no longer served from the pool")
	}
	p.Unpin(held) // the second pin still holds it
	f := putPinned(p, Key{Col: 2, Block: 9}, 128, 0)
	if &f.Vals[0] == buf {
		t.Fatalf("a block with one of two pins left was recycled")
	}
	p.Unpin(f)
	p.InvalidateColumn(1)
	intact("after InvalidateColumn")
	if cached(p, k0) {
		t.Fatalf("an invalidated block is still served")
	}
	p.Unpin(held)

	// Unpinned and still cached, the next fault takes its buffer.
	q := New(128 * 8)
	g := putPinned(q, k0, 128, 42)
	gbuf := &g.Vals[0]
	q.Unpin(g)
	if f := putPinned(q, Key{Col: 2}, 128, 0); &f.Vals[0] != gbuf {
		t.Fatalf("an unpinned victim's buffer was not recycled")
	}
	if s := q.Stats(); pinned(q) != 1 || s.ResidentBlocks != 1 {
		t.Fatalf("%d blocks resident, %d pinned; want 1 and 1", s.ResidentBlocks, pinned(q))
	}
}

func BenchmarkPinHit(b *testing.B) {
	p := New(1 << 24)
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = Key{Col: 1, Block: uint32(i)}
		put(p, keys[i], 4096, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Pin(keys[i%len(keys)])
		if f == nil {
			b.Fatal("unexpected miss")
		}
		p.Unpin(f)
	}
}

func ExamplePool() {
	p := New(1 << 20)
	k := Key{Col: 1, Block: 0}
	f := p.Pin(k)
	if f == nil { // a miss: reserve a frame, decode the block into it, publish
		f = p.Reserve(3)
		copy(f.Vals, []float64{1, 2, 3})
		f = p.Publish(k, f)
	}
	fmt.Println(len(f.Vals))
	p.Unpin(f)
	// Output: 3
}

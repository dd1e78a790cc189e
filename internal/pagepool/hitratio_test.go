package pagepool

import (
	"math/rand"
	"testing"
)

// exactClock is the cache this pool's recycling is held against: the same
// clock sweep over blocks charged exactly their length, nothing recycled.
type exactClock struct {
	budget, resident int64
	at               map[uint32]int // block -> ring index
	ring             []exactFrame
	hand, hits       int
}

type exactFrame struct {
	block uint32
	n     int
	ref   bool
}

func (c *exactClock) access(block uint32, n int) {
	if i, ok := c.at[block]; ok {
		c.ring[i].ref = true
		c.hits++
		return
	}
	c.at[block] = len(c.ring)
	c.ring = append(c.ring, exactFrame{block, n, true})
	c.resident += 8 * int64(n)
	for c.resident > c.budget && len(c.ring) > 1 {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		if f := &c.ring[c.hand]; f.ref {
			f.ref = false
			c.hand++
			continue
		}
		v := c.ring[c.hand]
		delete(c.at, v.block)
		c.resident -= 8 * int64(v.n)
		last := len(c.ring) - 1
		if c.hand != last {
			c.ring[c.hand] = c.ring[last]
			c.at[c.ring[c.hand].block] = c.hand
		}
		c.ring = c.ring[:last]
	}
}

// TestRecyclingKeepsTheHitRatio: frames are charged by buffer capacity, so a
// recycling rule that let buffers outgrow their blocks would buy its saved
// allocations with cached blocks. Over blocks of mixed lengths (nine in ten
// the only block of a short column, one in ten full) under skewed access, at
// budgets where hits matter, the pool must hold about as many blocks and
// answer about as many accesses from memory as a cache that charges each
// block exactly its length.
func TestRecyclingKeepsTheHitRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lens := make([]int, 900)
	var total int64
	for i := range lens {
		lens[i] = 300 + rng.Intn(1201)
		if rng.Intn(10) == 0 {
			lens[i] = 4096
		}
		total += 8 * int64(lens[i])
	}
	order := rng.Perm(len(lens)) // popularity rank -> block, so rank and length are unrelated
	const accesses = 100000
	for _, pct := range []int64{10, 25, 50} {
		budget := total * pct / 100
		zipf := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 8, uint64(len(lens)-1))
		exact := &exactClock{budget: budget, at: map[uint32]int{}}
		p := New(budget)
		for i := 0; i < accesses; i++ {
			b := uint32(order[zipf.Uint64()])
			exact.access(b, lens[b])
			k := Key{Col: 1, Block: b}
			f := p.Pin(k)
			if f == nil {
				f = p.Publish(k, p.Reserve(lens[b]))
			}
			p.Unpin(f)
		}
		s := p.Stats()
		got, want := float64(s.Hits)/accesses, float64(exact.hits)/accesses
		t.Logf("budget %d%%: hit ratio %.3f with %d blocks resident; exact-size cache %.3f with %d", pct, got, s.ResidentBlocks, want, len(exact.ring))
		if got < want-0.02 {
			t.Errorf("budget %d%%: hit ratio %.3f, more than 0.02 under the exact-size cache's %.3f", pct, got, want)
		}
		if 10*s.ResidentBlocks < 9*len(exact.ring) {
			t.Errorf("budget %d%%: %d blocks resident, under nine tenths of the exact-size cache's %d", pct, s.ResidentBlocks, len(exact.ring))
		}
		if s.ResidentBytes > budget {
			t.Errorf("budget %d%%: %d bytes resident over a budget of %d", pct, s.ResidentBytes, budget)
		}
	}
}

package pagepool

import (
	"fmt"
	"math/rand"
	"testing"
)

// reader is one goroutine's view of the pool in the model check: idle,
// holding a pinned frame, or holding a reserved frame it has filled.
type reader struct {
	f        *Frame
	key      Key
	id       int  // the model's frame id while pinned
	reserved bool // f is reserved, not yet published
}

// pattern is the value at index i of the block under k: unique per key and
// position, so a chunk shared between two frames, or moved within one, shows.
func pattern(k Key, i int) float64 {
	return float64(k.Col)*1e7 + float64(k.Block)*1e4 + float64(i)
}

func fillPattern(f *Frame, k Key) {
	for i := 0; i < f.NumChunks(); i++ {
		c := f.Chunk(i)
		for j := range c {
			c[j] = pattern(k, i*ChunkValues+j)
		}
	}
}

// TestPoolMatchesClockModel runs random sequences of Pin, Reserve, Publish
// (lost races included), Abandon, Unpin, SetBudget up and down, and
// InvalidateColumn of a column a reader has pinned, over blocks of 1 to 4 096
// values, against the clock model charged by chunks. After every step the
// pool must cache the model's keys in the model's ring order with its
// reference bits, pins, hand, charge and counters; every frame a reader or
// the ring holds must still carry its own fill pattern, and no chunk may be
// in two places; and the pool may own (cached + reserved + free chunks) no
// more than its budget or, when pinned frames pushed it over, the bytes those
// readers held — one block per reader.
func TestPoolMatchesClockModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { modelCheck(t, seed, 2500) })
	}
}

func modelCheck(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	const cols, blocks = 3, 8
	lens := map[Key]int{}
	for c := uint64(1); c <= cols; c++ {
		for b := uint32(0); b < blocks; b++ {
			n := 1 + rng.Intn(4096)
			switch rng.Intn(4) {
			case 0:
				n = MaxValues
			case 1:
				n = 1 + rng.Intn(2*ChunkValues)
			}
			lens[Key{Col: c, Block: b}] = n
		}
	}
	budgets := []int64{1, 8 * chunkBytes, 64 * chunkBytes, 256 * chunkBytes, 0}
	budget := budgets[2]
	p, m := New(budget), newClockModel(budget, chunkedBytes)
	readers := make([]reader, 3)
	var peak int64 // most bytes readers held at once since the budget was last set

	held := func() int64 {
		seen, b := map[*Frame]bool{}, int64(0)
		for _, r := range readers {
			if r.f != nil && !seen[r.f] {
				seen[r.f] = true
				b += r.f.bytes()
			}
		}
		return b
	}
	randomKey := func() Key {
		return Key{Col: 1 + uint64(rng.Intn(cols)), Block: uint32(rng.Intn(blocks))}
	}

	for step := 0; step < steps; step++ {
		r := &readers[rng.Intn(len(readers))]
		var op string
		switch x := rng.Intn(100); {
		case x < 3:
			budget = budgets[rng.Intn(len(budgets))]
			op = fmt.Sprintf("SetBudget(%d)", budget)
			p.SetBudget(budget)
			m.setBudget(budget)
			peak = held()
		case x < 5:
			col := 1 + uint64(rng.Intn(cols))
			for _, o := range readers {
				if o.f != nil && !o.reserved && rng.Intn(2) == 0 {
					col = o.key.Col // a column a reader has pinned
				}
			}
			op = fmt.Sprintf("InvalidateColumn(%d)", col)
			p.InvalidateColumn(col)
			m.invalidate(col)
		case r.f == nil:
			k := randomKey()
			op = fmt.Sprintf("Pin(%v)", k)
			f, id := p.Pin(k), m.pin(k)
			if (f == nil) != (id < 0) {
				t.Fatalf("step %d %s: pool hit=%v, model hit=%v", step, op, f != nil, id >= 0)
			}
			if f != nil {
				*r = reader{f: f, key: k, id: id}
				break
			}
			op += fmt.Sprintf(" missed, Reserve(%d)", lens[k])
			f = p.Reserve(lens[k])
			m.reserve(lens[k])
			if f.Len() != lens[k] {
				t.Fatalf("step %d %s: a frame of %d values", step, op, f.Len())
			}
			fillPattern(f, k)
			*r = reader{f: f, key: k, reserved: true}
		case r.reserved && rng.Intn(5) == 0:
			op = fmt.Sprintf("Abandon(%v)", r.key)
			p.Abandon(r.f)
			m.abandon(lens[r.key])
			*r = reader{}
		case r.reserved:
			op = fmt.Sprintf("Publish(%v)", r.key)
			_, cached := m.at[r.key]
			f := p.Publish(r.key, r.f)
			id := m.publish(r.key, lens[r.key])
			if lost := f != r.f; lost != cached {
				t.Fatalf("step %d %s: pool lost the race: %v, model: %v", step, op, lost, cached)
			}
			*r = reader{f: f, key: r.key, id: id}
		default:
			op = fmt.Sprintf("Unpin(%v)", r.key)
			p.Unpin(r.f)
			m.unpin(r.key, r.id)
			*r = reader{}
		}
		if h := held(); h > peak {
			peak = h
		}
		checkAgainstModel(t, fmt.Sprintf("step %d %s", step, op), p, m, readers, budget, peak)
	}
}

func checkAgainstModel(t *testing.T, at string, p *Pool, m *clockModel, readers []reader, budget, peak int64) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ring) != len(m.ring) || p.hand != m.hand || p.resident != m.resident {
		t.Fatalf("%s: pool has %d frames, hand %d, %d bytes charged; model %d, %d, %d",
			at, len(p.ring), p.hand, p.resident, len(m.ring), m.hand, m.resident)
	}
	if p.hits.Load() != m.hits || p.misses.Load() != m.misses || p.evictions.Load() != m.evictions {
		t.Fatalf("%s: hits/misses/evictions %d/%d/%d, model %d/%d/%d", at,
			p.hits.Load(), p.misses.Load(), p.evictions.Load(), m.hits, m.misses, m.evictions)
	}
	pins := map[*Frame]int32{}
	for _, r := range readers {
		if r.f != nil && !r.reserved {
			pins[r.f]++
		}
	}
	for i, f := range p.ring {
		mf := m.ring[i]
		if f.key != mf.key || f.ref != mf.ref || f.pins.Load() != mf.pins || f.Len() != mf.n {
			t.Fatalf("%s: ring[%d] is %v ref=%v pins=%d n=%d; model %v ref=%v pins=%d n=%d", at, i,
				f.key, f.ref, f.pins.Load(), f.Len(), mf.key, mf.ref, mf.pins, mf.n)
		}
		if p.frames[f.key] != f {
			t.Fatalf("%s: ring[%d] (%v) is not the frame cached under its key", at, i, f.key)
		}
		if f.pins.Load() != pins[f] {
			t.Fatalf("%s: %v has %d pins, readers hold %d", at, f.key, f.pins.Load(), pins[f])
		}
	}
	for f, n := range pins {
		if f.pins.Load() != n {
			t.Fatalf("%s: an orphaned frame of %v has %d pins, readers hold %d", at, f.key, f.pins.Load(), n)
		}
	}

	// Every live frame keeps its own pattern, and every chunk is in one
	// place: one live frame, or the free list.
	owner := map[*chunk]string{}
	claim := func(c *chunk, who string) {
		if prev, dup := owner[c]; dup {
			t.Fatalf("%s: a chunk is held by %s and by %s", at, prev, who)
		}
		owner[c] = who
	}
	live := map[*Frame]bool{}
	checkFrame := func(f *Frame, k Key, who string) {
		if live[f] {
			return
		}
		live[f] = true
		for i := 0; i < f.Len(); i++ {
			if v := f.At(i); v != pattern(k, i) {
				t.Fatalf("%s: %s (%v) holds %v at %d, want %v", at, who, k, v, i, pattern(k, i))
			}
		}
		for i := 0; i < f.NumChunks(); i++ {
			claim(f.chunks[i], fmt.Sprintf("%s %v chunk %d", who, k, i))
		}
	}
	for _, f := range p.ring {
		checkFrame(f, f.key, "a cached frame")
	}
	for i, r := range readers {
		if r.f != nil {
			checkFrame(r.f, r.key, fmt.Sprintf("reader %d's frame", i))
		}
	}
	for _, c := range p.free {
		claim(c, "the free list")
	}
	for _, f := range p.spare {
		if live[f] {
			t.Fatalf("%s: a spare frame is still live", at)
		}
	}

	if budget > 0 {
		owned := p.resident + chunkBytes*int64(len(p.free))
		if limit := max(budget, peak); owned > limit {
			t.Fatalf("%s: the pool owns %d bytes; budget %d, readers held at most %d", at, owned, budget, peak)
		}
	}
}

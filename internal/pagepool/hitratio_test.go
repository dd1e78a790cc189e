package pagepool

import (
	"math/rand"
	"testing"
)

// clockModel is the reference the pool is held against: the same clock sweep
// over frames that carry a key, a length, a reference bit and a pin count —
// no memory, nothing recycled. charge prices a block of n values: its exact
// length when the model stands for an ideal cache, its chunks when the pool
// must match it step for step.
type clockModel struct {
	budget, resident        int64
	charge                  func(n int) int64
	at                      map[Key]int // key -> ring index
	ring                    []modelFrame
	hand                    int
	hits, misses, evictions int64
	nextID                  int
}

// modelFrame is one cached block of the model; id tells a republished key
// from the frame that was invalidated before it.
type modelFrame struct {
	key  Key
	n    int
	ref  bool
	pins int32
	id   int
}

func newClockModel(budget int64, charge func(n int) int64) *clockModel {
	return &clockModel{budget: budget, charge: charge, at: map[Key]int{}}
}

func exactBytes(n int) int64 { return 8 * int64(n) }

func chunkedBytes(n int) int64 { return chunkBytes * int64(chunksFor(n)) }

func (m *clockModel) over(extra int64) bool {
	return m.budget > 0 && m.resident+extra > m.budget
}

func (m *clockModel) victim() int {
	for k := 2 * len(m.ring); k > 0; k-- {
		if m.hand >= len(m.ring) {
			m.hand = 0
		}
		if f := &m.ring[m.hand]; f.pins == 0 {
			if !f.ref {
				return m.hand
			}
			f.ref = false
		}
		m.hand++
	}
	return -1
}

func (m *clockModel) removeAt(i int) {
	delete(m.at, m.ring[i].key)
	m.resident -= m.charge(m.ring[i].n)
	last := len(m.ring) - 1
	m.ring[i] = m.ring[last]
	m.ring = m.ring[:last]
	if i < last {
		m.at[m.ring[i].key] = i
	}
	m.evictions++
}

func (m *clockModel) evict(extra int64) {
	for m.over(extra) {
		i := m.victim()
		if i < 0 {
			return
		}
		m.removeAt(i)
	}
}

// pin returns the id of the frame cached under k, pinned, or -1 on a miss.
func (m *clockModel) pin(k Key) int {
	i, ok := m.at[k]
	if !ok {
		m.misses++
		return -1
	}
	m.hits++
	m.ring[i].ref = true
	m.ring[i].pins++
	return m.ring[i].id
}

// unpin releases a pin on frame id; an invalidated frame is no longer the
// model's to count.
func (m *clockModel) unpin(k Key, id int) {
	if i, ok := m.at[k]; ok && m.ring[i].id == id {
		m.ring[i].pins--
	}
}

func (m *clockModel) reserve(n int) {
	m.evict(m.charge(n))
	m.resident += m.charge(n)
}

// publish caches a reserved block of n values under k, pinned, and returns
// the id of the frame a reader now holds: the one already cached, if any.
func (m *clockModel) publish(k Key, n int) int {
	if i, ok := m.at[k]; ok {
		m.resident -= m.charge(n)
		m.ring[i].ref = true
		m.ring[i].pins++
		return m.ring[i].id
	}
	m.nextID++
	m.at[k] = len(m.ring)
	m.ring = append(m.ring, modelFrame{key: k, n: n, ref: true, pins: 1, id: m.nextID})
	return m.nextID
}

func (m *clockModel) abandon(n int) { m.resident -= m.charge(n) }

func (m *clockModel) setBudget(b int64) {
	m.budget = b
	m.evict(0)
}

func (m *clockModel) invalidate(col uint64) {
	for i := 0; i < len(m.ring); {
		if m.ring[i].key.Col == col {
			m.removeAt(i)
			continue
		}
		i++
	}
}

// access is one reader's pin → (reserve → publish) → unpin of k.
func (m *clockModel) access(k Key, n int) {
	id := m.pin(k)
	if id < 0 {
		m.reserve(n)
		id = m.publish(k, n)
	}
	m.unpin(k, id)
}

// TestRecyclingKeepsTheHitRatio: frames are charged by the chunks they hold,
// so a recycling rule that let frames outgrow their blocks would buy its
// saved allocations with cached blocks. Over blocks of mixed lengths (nine in
// ten the only block of a short column, one in ten full) under skewed access,
// at budgets where hits matter, the pool must hold about as many blocks and
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
		exact := newClockModel(budget, exactBytes)
		p := New(budget)
		for i := 0; i < accesses; i++ {
			b := uint32(order[zipf.Uint64()])
			k := Key{Col: 1, Block: b}
			exact.access(k, lens[b])
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

// Package pagepool implements the buffer pool that backs paged measure
// columns: a byte-budgeted cache of decoded value blocks with clock (second
// chance) eviction, keyed by (column token, block index); colstore pages
// blocks in through it so the resident working set stays under a
// configurable budget regardless of how much data sits on disk.
//
// The pool's unit of memory is a chunk of ChunkValues values (1 KiB). A frame
// holds one block in ceil(n/ChunkValues) chunks and is charged for them, so
// the chunks an eviction frees fit the next block whatever its length: a
// fault in a pool that has once owned its budget allocates nothing, on any
// mix of block lengths.
//
// Safety model: pin → read → unpin. A reader gets a block only as a pinned
// Frame (from Pin on a hit, from Publish after a miss) and may read its chunks
// until it calls Unpin; the pool never evicts, overwrites or hands out the
// chunks of a frame whose pin count is above zero. A chunk returns to the
// pool's free list only from a frame the clock sweep found unpinned under the
// mutex, or from a frame no reader has seen (Abandon, a lost Publish race). A
// frame is written only between Reserve and Publish, when exactly one
// goroutine knows it.
package pagepool

import (
	"sync"
	"sync/atomic"
)

// ChunkValues is the number of values in one chunk, the pool's unit of
// memory: a constant, so that chunk boundaries sit at the same offsets of
// every block.
const ChunkValues = 128

// MaxValues is the longest block a frame holds: 4 096 values, colstore's
// block. A frame's chunk table is that long, so that any spare frame takes
// any block without growing.
const MaxValues = maxChunks * ChunkValues

const (
	maxChunks  = 32
	chunkBytes = 8 * ChunkValues
)

type chunk [ChunkValues]float64

// chunksFor is the number of chunks a block of n values occupies.
//
//grove:hotpath
func chunksFor(n int) int { return (n + ChunkValues - 1) / ChunkValues }

// Key identifies one decoded block: Col is a process-unique column token
// (columns from different snapshot generations get different tokens, so stale
// blocks can never be served after a reload) and Block is the block index
// within the column.
type Key struct {
	Col   uint64
	Block uint32
}

// Frame is one block's worth of pool chunks. Its values are valid and
// immutable from Pin or Publish until the matching Unpin; between Reserve and
// Publish they are the reserving goroutine's to fill, chunk by chunk.
type Frame struct {
	chunks [maxChunks]*chunk
	n      int

	key Key
	// pins rises only under Pool.mu (Pin, Publish) and falls without it
	// (Unpin), so a count of zero read under the mutex stays zero until the
	// mutex is released: that is what lets eviction take the chunks.
	pins atomic.Int32
	ref  bool // clock reference bit
}

// Len is the number of values in the frame's block.
//
//grove:hotpath
func (f *Frame) Len() int { return f.n }

// NumChunks is the number of chunks the block occupies.
//
//grove:hotpath
func (f *Frame) NumChunks() int { return chunksFor(f.n) }

// Chunk returns values [i*ChunkValues, min((i+1)*ChunkValues, Len())) of the
// block: ChunkValues of them in every chunk but the last.
//
//grove:hotpath
func (f *Frame) Chunk(i int) []float64 {
	c := f.chunks[i][:]
	if rest := f.n - i*ChunkValues; rest < ChunkValues {
		return c[:rest]
	}
	return c
}

// At returns value i of the block.
//
//grove:hotpath
func (f *Frame) At(i int) float64 {
	return f.chunks[uint(i)/ChunkValues][uint(i)%ChunkValues]
}

// bytes is what the frame is charged against the budget: its chunks.
func (f *Frame) bytes() int64 { return chunkBytes * int64(chunksFor(f.n)) }

// Pool is a clock-eviction buffer pool over decoded measure blocks. The
// zero value is not usable; call New.
type Pool struct {
	mu     sync.Mutex
	budget int64 // resident-byte budget; <=0 disables eviction (unbounded)
	// resident is the bytes of the chunks of every frame the pool owns:
	// cached frames and frames reserved but not yet published.
	resident int64
	free     []*chunk // chunks no frame holds
	spare    []*Frame // frames no reader can reach, for Reserve to refill
	frames   map[Key]*Frame
	ring     []*Frame
	hand     int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New returns a pool with the given resident-byte budget. A budget <= 0
// means unbounded (nothing is ever evicted).
func New(budgetBytes int64) *Pool {
	return &Pool{budget: budgetBytes, frames: make(map[Key]*Frame)}
}

// SetBudget changes the resident-byte budget, immediately evicts unpinned
// frames down to it and lets go of the free chunks beyond it. Pinned frames
// stay: the cached frames are back under the budget at the first fault after
// their readers unpin, and the chunks that frees stay on the free list for
// later faults until the budget is next set.
func (p *Pool) SetBudget(budgetBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget = budgetBytes
	for p.over(0) {
		i := p.victimLocked()
		if i < 0 {
			break
		}
		p.releaseLocked(p.removeAtLocked(i))
	}
	if p.budget <= 0 {
		return
	}
	for len(p.free) > 0 && p.over(chunkBytes*int64(len(p.free))) {
		last := len(p.free) - 1
		p.free[last] = nil
		p.free = p.free[:last]
	}
	for len(p.spare) > len(p.free) {
		last := len(p.spare) - 1
		p.spare[last] = nil
		p.spare = p.spare[:last]
	}
}

// Pin returns the cached frame for key with its pin count raised, or nil on
// a miss. A hit sets the frame's reference bit, granting it a second chance
// on the clock sweep. Every non-nil result must be passed to Unpin once.
//
//grove:hotpath
func (p *Pool) Pin(key Key) *Frame {
	p.mu.Lock()
	f := p.frames[key]
	if f != nil {
		f.ref = true
		f.pins.Add(1)
	}
	p.mu.Unlock()
	if f == nil {
		p.misses.Add(1)
		return nil
	}
	p.hits.Add(1)
	return f
}

// Unpin releases one pin. The caller must not touch f afterwards.
//
//grove:hotpath
func (p *Pool) Unpin(f *Frame) {
	if f.pins.Add(-1) < 0 {
		unpinUnderflow()
	}
}

// unpinUnderflow is kept out of line so that Unpin, inlined into colstore's
// kernels, carries no panic argument for the hotalloc check to find there.
//
//go:noinline
func unpinUnderflow() { panic("pagepool: Unpin without a matching Pin") }

// Reserve returns a frame of n values (at most MaxValues) for the caller to
// fill, evicting unpinned frames by the clock until its chunks fit the
// budget. The frame and its chunks come from the free lists the evictions
// fed; only what they lack is allocated, which happens while the pool has
// never owned its budget, or when pinned frames push it past its peak. When
// every frame is pinned the pool overshoots its budget by this block — one
// block per concurrent reader at most, since a reader holds one pin. The
// frame must go to Publish or Abandon.
//
//grove:hotpath
func (p *Pool) Reserve(n int) *Frame {
	need := chunksFor(n)
	charge := chunkBytes * int64(need)
	p.mu.Lock()
	for p.over(charge) {
		i := p.victimLocked()
		if i < 0 {
			break
		}
		p.releaseLocked(p.removeAtLocked(i))
	}
	p.resident += charge
	var f *Frame
	if k := len(p.spare) - 1; k >= 0 {
		f = p.spare[k]
		p.spare[k] = nil
		p.spare = p.spare[:k]
	} else {
		f = new(Frame) //grovevet:ignore hotalloc no spare frame: the pool holds more blocks at once than it ever has
	}
	have := min(need, len(p.free))
	rest := len(p.free) - have
	copy(f.chunks[:have], p.free[rest:])
	clear(p.free[rest:])
	p.free = p.free[:rest]
	p.mu.Unlock()
	// Allocated outside the mutex: in a pool below its budget every first
	// touch of a block comes here, from every reader at once.
	for i := have; i < need; i++ {
		f.chunks[i] = new(chunk) //grovevet:ignore hotalloc the pool grows: below its budget, or past its peak under pinned frames
	}
	f.n = n
	return f
}

// Publish caches a reserved, filled frame under key and returns it pinned.
// If the key is already cached (two readers raced on the same miss) the
// cached frame wins, so all readers share one copy, and f — which no other
// reader has seen — goes back to the free lists.
//
//grove:hotpath
func (p *Pool) Publish(key Key, f *Frame) *Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := p.frames[key]; cur != nil {
		p.resident -= f.bytes()
		p.releaseLocked(f)
		cur.ref = true
		cur.pins.Add(1)
		return cur
	}
	f.key, f.ref = key, true
	f.pins.Store(1)
	p.frames[key] = f
	p.ring = append(p.ring, f) //grovevet:ignore hotalloc ring growth, amortized; a pool at its budget removed a frame before adding this one
	return f
}

// Abandon gives up a reserved frame that will not be published (its block
// could not be read); its chunks go back to the free lists.
func (p *Pool) Abandon(f *Frame) {
	p.mu.Lock()
	p.resident -= f.bytes()
	p.releaseLocked(f)
	p.mu.Unlock()
}

// over reports whether the pool would exceed its budget with extra more
// bytes resident.
//
//grove:hotpath
func (p *Pool) over(extra int64) bool {
	return p.budget > 0 && p.resident+extra > p.budget
}

// victimLocked runs the clock sweep to the next unpinned frame whose
// reference bit is clear and returns its ring index, the hand left on it; -1
// when every frame is pinned. Two turns of the ring suffice: the first clears
// the bit of every unpinned frame it passes, so the second stops at one.
//
//grove:hotpath
func (p *Pool) victimLocked() int {
	for n := 2 * len(p.ring); n > 0; n-- {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		f := p.ring[p.hand]
		if f.pins.Load() == 0 {
			if !f.ref {
				return p.hand
			}
			f.ref = false
		}
		p.hand++
	}
	return -1
}

// removeAtLocked uncaches ring[i] by swapping the last frame into its slot
// and returns it, chunks attached, for the caller to release or drop.
//
//grove:hotpath
func (p *Pool) removeAtLocked(i int) *Frame {
	f := p.ring[i]
	delete(p.frames, f.key)
	p.resident -= f.bytes()
	last := len(p.ring) - 1
	p.ring[i] = p.ring[last]
	p.ring[last] = nil
	p.ring = p.ring[:last]
	p.evictions.Add(1)
	return f
}

// releaseLocked moves the chunks of a frame no reader holds onto the free
// list and the frame onto the spare list.
//
//grove:hotpath
func (p *Pool) releaseLocked(f *Frame) {
	need := chunksFor(f.n)
	p.free = append(p.free, f.chunks[:need]...) //grovevet:ignore hotalloc free-list growth, amortized: it plateaus at the chunks the pool owns
	clear(f.chunks[:need])
	f.n = 0
	p.spare = append(p.spare, f) //grovevet:ignore hotalloc spare-list growth, amortized: it plateaus at the frames the pool has held at once
}

// InvalidateColumn uncaches every block of the given column token. Used when
// a column's paged prefix is materialized for a write; that happens under the
// relation's write lock, so none of the frames is pinned. Their chunks go
// with them to the collector, not to the free list: were a frame pinned, it
// would only be orphaned — no longer cached, its chunks never reused — and
// stay valid for its reader.
func (p *Pool) InvalidateColumn(col uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(p.ring); {
		if p.ring[i].key.Col == col {
			p.removeAtLocked(i)
			continue // the swapped-in frame now sits at i
		}
		i++
	}
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	ResidentBlocks int
	ResidentBytes  int64 // every chunk the pool owns: cached, reserved and free
	BudgetBytes    int64
}

// Stats returns a consistent snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	blocks := len(p.ring)
	bytes := p.resident + chunkBytes*int64(len(p.free))
	budget := p.budget
	p.mu.Unlock()
	return Stats{
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		Evictions:      p.evictions.Load(),
		ResidentBlocks: blocks,
		ResidentBytes:  bytes,
		BudgetBytes:    budget,
	}
}

// Package pagepool implements the buffer pool that backs paged measure
// columns: a byte-budgeted cache of decoded value blocks with clock (second
// chance) eviction. The pool owns the []float64 buffers it caches, keyed by
// (column token, block index); colstore pages blocks in through it so the
// resident working set stays under a configurable budget regardless of how
// much data sits on disk.
//
// Safety model: pin → read → unpin. A reader gets a block only as a pinned
// Frame (from Pin on a hit, from Publish after a miss) and may read
// Frame.Vals until it calls Unpin; the pool never evicts, overwrites or hands
// out the buffer of a frame whose pin count is above zero. An unpinned frame
// may be evicted at any time, and eviction recycles: when the victim's buffer
// fits the block being faulted in without being more than twice its size,
// Reserve hands it to the faulting reader, so a fault between blocks of like
// length — every block of a column but its last is full — allocates nothing.
// A frame is written only between Reserve and Publish, when exactly one
// goroutine knows it.
package pagepool

import (
	"sync"
	"sync/atomic"
)

// Key identifies one decoded block: Col is a process-unique column token
// (columns from different snapshot generations get different tokens, so stale
// blocks can never be served after a reload) and Block is the block index
// within the column.
type Key struct {
	Col   uint64
	Block uint32
}

// Frame is one pool-owned buffer holding one decoded block. Vals is valid and
// immutable from Pin or Publish until the matching Unpin; between Reserve and
// Publish it is the reserving goroutine's to fill.
type Frame struct {
	Vals []float64

	key Key
	// pins rises only under Pool.mu (Pin, Publish) and falls without it
	// (Unpin), so a count of zero read under the mutex stays zero until the
	// mutex is released: that is what lets eviction take the buffer.
	pins atomic.Int32
	ref  bool // clock reference bit
}

// bytes is what the frame is charged against the budget: its buffer's whole
// capacity, so a recycled buffer larger than its block is charged in full.
// Reserve keeps that at most twice the block.
func (f *Frame) bytes() int64 { return 8 * int64(cap(f.Vals)) }

// Pool is a clock-eviction buffer pool over decoded measure blocks. The
// zero value is not usable; call New.
type Pool struct {
	mu     sync.Mutex
	budget int64 // resident-byte budget; <=0 disables eviction (unbounded)
	// resident is the bytes of every frame the pool owns: cached frames and
	// frames reserved but not yet published.
	resident int64
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

// SetBudget changes the resident-byte budget and immediately evicts unpinned
// frames down to it. Pinned frames stay; the pool is back under the budget at
// the first fault after their readers unpin.
func (p *Pool) SetBudget(budgetBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget = budgetBytes
	for p.over(0) {
		i := p.victimLocked()
		if i < 0 {
			return
		}
		p.removeAtLocked(i)
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

// Unpin releases one pin. The caller must not touch f.Vals afterwards.
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

// Reserve returns a frame with len(Vals) == n for the caller to decode a
// block into, evicting unpinned frames until it fits the budget. The first
// victim whose buffer holds n values and no more than 2n is the frame
// returned; the other victims are dropped for the collector and the block
// gets a buffer of its own length. The bound is what keeps the pool's
// capacity in blocks: frames are charged by buffer, and without it every
// buffer would in time be one that once held the longest block, however short
// the blocks cached in them now. When every frame is pinned the pool
// overshoots its budget by this block — one block per concurrent reader at
// most, since a reader holds one pin. The frame must go to Publish or Abandon.
//
//grove:hotpath
func (p *Pool) Reserve(n int) *Frame {
	p.mu.Lock()
	var f *Frame
	charge := 8 * int64(n)
	for p.over(charge) {
		i := p.victimLocked()
		if i < 0 {
			break
		}
		v := p.removeAtLocked(i)
		if c := cap(v.Vals); f == nil && n <= c && c <= 2*n {
			f = v
			f.Vals = f.Vals[:n]
			charge = f.bytes()
		}
	}
	p.resident += charge
	p.mu.Unlock()
	if f == nil {
		// Allocated outside the mutex: in a pool below its budget every
		// first touch of a block comes here, from every reader at once.
		f = &Frame{Vals: make([]float64, n)} //grovevet:ignore hotalloc a pool below its budget, or no victim within 2x of the block; blocks of like length recycle
	}
	return f
}

// Publish caches a reserved, filled frame under key and returns it pinned.
// If the key is already cached (two readers raced on the same miss) the
// cached frame wins, so all readers share one buffer, and f is given up.
//
//grove:hotpath
func (p *Pool) Publish(key Key, f *Frame) *Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := p.frames[key]; cur != nil {
		p.resident -= f.bytes()
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
// could not be read).
func (p *Pool) Abandon(f *Frame) {
	p.mu.Lock()
	p.resident -= f.bytes()
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
// and returns it, buffer attached, for the caller to recycle or drop.
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

// InvalidateColumn uncaches every block of the given column token. Used when
// a paged column is materialized for writes; that happens under the
// relation's write lock, so none of the frames is pinned. Were one pinned, it
// would only be orphaned — no longer cached, its buffer never recycled — and
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
	ResidentBytes  int64 // capacity of the buffers the pool owns
	BudgetBytes    int64
}

// Stats returns a consistent snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	blocks := len(p.ring)
	bytes := p.resident
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

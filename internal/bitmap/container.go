package bitmap

import (
	"math/bits"
	"slices"
)

// Container is the per-64K-chunk storage unit of a Bitmap. The low 16 bits of
// the values in a chunk are held in one of three physical layouts — a sorted
// uint16 array, a bitset of up to 1024 words, or a sequence of runs —
// mirroring the Roaring bitmap design. Containers are immutable from the
// point of view of binary operations: And/Or/AndNot always return fresh
// containers (or nil for empty results), while add/remove mutate in place
// and may change layout.
type container interface {
	// add inserts the low bits v, returning the (possibly new) container and
	// whether the value was absent before.
	add(v uint16) (container, bool)
	// remove deletes v, returning the (possibly new) container and whether
	// the value was present.
	remove(v uint16) (container, bool)
	contains(v uint16) bool
	cardinality() int
	// max returns the largest value; containers are never empty.
	max() uint16
	and(other container) container
	or(other container) container
	andNot(other container) container
	// each calls f for every value in ascending order; f returning false
	// stops the iteration and each returns false.
	each(f func(v uint16) bool) bool
	clone() container
	// sizeBytes reports the in-memory payload size of the container,
	// used for space accounting.
	sizeBytes() int
}

const (
	arrayMaxCardinality = 4096 // beyond this an array converts to a bitset
	bitsetWords         = 1024 // 65536 bits: the most words a bitset holds
)

// --- array container -------------------------------------------------------

// arrayContainer stores a sorted slice of uint16 values. It is the layout of
// choice for sparse chunks (≤4096 values).
type arrayContainer struct {
	values []uint16
}

func newArrayContainer() *arrayContainer {
	return &arrayContainer{}
}

func (a *arrayContainer) indexOf(v uint16) (int, bool) {
	lo, hi := 0, len(a.values)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.values[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.values) && a.values[lo] == v
}

func (a *arrayContainer) add(v uint16) (container, bool) {
	if n := len(a.values); n > 0 && n < arrayMaxCardinality && v > a.values[n-1] {
		// Tail append: record ids arrive in ascending order.
		a.values = append(a.values, v)
		return a, true
	}
	i, found := a.indexOf(v)
	if found {
		return a, false
	}
	if len(a.values) >= arrayMaxCardinality {
		b := a.toBitset()
		b.set(v)
		return b, true
	}
	a.values = append(a.values, 0)
	copy(a.values[i+1:], a.values[i:])
	a.values[i] = v
	return a, true
}

func (a *arrayContainer) remove(v uint16) (container, bool) {
	i, found := a.indexOf(v)
	if !found {
		return a, false
	}
	a.values = append(a.values[:i], a.values[i+1:]...)
	return a, true
}

func (a *arrayContainer) contains(v uint16) bool {
	if n := len(a.values); n == 0 || v >= a.values[n-1] {
		// At or past the tail — view maintenance probing for the newest record.
		return n > 0 && v == a.values[n-1]
	}
	_, found := a.indexOf(v)
	return found
}

func (a *arrayContainer) cardinality() int { return len(a.values) }

func (a *arrayContainer) max() uint16 { return a.values[len(a.values)-1] }

func (a *arrayContainer) toBitset() *bitsetContainer {
	b := newBitsetContainer(int(a.max()>>6) + 1)
	for _, v := range a.values {
		b.words[v>>6] |= 1 << (v & 63)
	}
	b.card = len(a.values)
	return b
}

// andArray is a ∩ o in a fresh container sized once to the smaller operand
// (nil when empty), probing through seen.
func (a *arrayContainer) andArray(o *arrayContainer, seen *probeSet) container {
	out := intersectInto(make([]uint16, min(len(a.values), len(o.values))), a.values, o.values, seen)
	if len(out) == 0 {
		return nil
	}
	return &arrayContainer{values: out}
}

func (a *arrayContainer) and(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		var seen probeSet
		return a.andArray(o, &seen)
	case *bitsetContainer:
		out := intersectArrayBitset(make([]uint16, len(a.values)), a.values, o.words)
		if len(out) == 0 {
			return nil
		}
		return &arrayContainer{values: out}
	case *runContainer:
		out := intersectArrayRuns(make([]uint16, 0, min(len(a.values), o.card)), a.values, o.runs)
		if len(out) == 0 {
			return nil
		}
		return &arrayContainer{values: out}
	}
	return nil
}

func (a *arrayContainer) or(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		out := unionSorted(a.values, o.values)
		if len(out) > arrayMaxCardinality {
			return (&arrayContainer{values: out}).toBitset()
		}
		return &arrayContainer{values: out}
	case *bitsetContainer:
		return o.or(a)
	case *runContainer:
		return o.or(a)
	}
	return a.clone()
}

func (a *arrayContainer) andNot(other container) container {
	var out []uint16
	switch o := other.(type) {
	case *arrayContainer:
		out = differenceSorted(a.values, o.values)
	default:
		for _, v := range a.values {
			if !other.contains(v) {
				out = append(out, v)
			}
		}
		_ = o
	}
	if len(out) == 0 {
		return nil
	}
	return &arrayContainer{values: out}
}

func (a *arrayContainer) each(f func(uint16) bool) bool {
	for _, v := range a.values {
		if !f(v) {
			return false
		}
	}
	return true
}

func (a *arrayContainer) clone() container {
	out := make([]uint16, len(a.values))
	copy(out, a.values)
	return &arrayContainer{values: out}
}

func (a *arrayContainer) sizeBytes() int { return 2 * len(a.values) }

// --- bitset container ------------------------------------------------------

// bitsetContainer stores one bit per value of its chunk up to the word that
// holds its highest value — 1 to 1024 words, the words past len(words)
// reading as zero — plus a cached cardinality. A chunk whose values span a
// few thousand records costs a few hundred bytes, not 8 KB. Every kernel
// takes operands of any two lengths; add grows the words past the last one,
// and words[len:cap] are always zero.
type bitsetContainer struct {
	words []uint64
	card  int
}

// newBitsetContainer returns an empty bitset of n words, 1 ≤ n ≤ bitsetWords.
func newBitsetContainer(n int) *bitsetContainer {
	return &bitsetContainer{words: make([]uint64, n)}
}

func (b *bitsetContainer) get(v uint16) bool {
	w := int(v >> 6)
	return w < len(b.words) && b.words[w]&(1<<(v&63)) != 0
}

// grow extends the words to n, doubling the capacity up to bitsetWords so
// an ascending run of adds copies O(1) words per add.
func (b *bitsetContainer) grow(n int) {
	if n <= cap(b.words) {
		b.words = b.words[:n]
		return
	}
	words := make([]uint64, n, min(max(n, 2*cap(b.words)), bitsetWords))
	copy(words, b.words)
	b.words = words
}

func (b *bitsetContainer) set(v uint16) bool {
	w, m := int(v>>6), uint64(1)<<(v&63)
	if w >= len(b.words) {
		b.grow(w + 1)
	}
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.card++
	return true
}

func (b *bitsetContainer) clear(v uint16) bool {
	w, m := int(v>>6), uint64(1)<<(v&63)
	if w >= len(b.words) || b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.card--
	return true
}

// used returns the words up to the highest set one, at least one word.
func (b *bitsetContainer) used() []uint64 {
	n := len(b.words)
	for n > 1 && b.words[n-1] == 0 {
		n--
	}
	return b.words[:n]
}

func (b *bitsetContainer) add(v uint16) (container, bool) {
	return b, b.set(v)
}

func (b *bitsetContainer) remove(v uint16) (container, bool) {
	changed := b.clear(v)
	if changed && b.card <= arrayMaxCardinality {
		return b.toArray(), true
	}
	return b, changed
}

func (b *bitsetContainer) contains(v uint16) bool { return b.get(v) }

func (b *bitsetContainer) cardinality() int { return b.card }

func (b *bitsetContainer) max() uint16 {
	for wi := len(b.words) - 1; wi >= 0; wi-- {
		if w := b.words[wi]; w != 0 {
			return uint16(wi*64 + 63 - bits.LeadingZeros64(w))
		}
	}
	return 0
}

func (b *bitsetContainer) toArray() *arrayContainer {
	out := make([]uint16, 0, b.card)
	for wi, w := range b.words {
		for w != 0 {
			t := w & -w
			out = append(out, uint16(wi*64+bits.TrailingZeros64(w)))
			w ^= t
		}
	}
	return &arrayContainer{values: out}
}

// settle returns the result of a kernel that left b's words and card
// final: nil when empty, an array at or below arrayMaxCardinality, else b
// trimmed to its highest set word.
func (b *bitsetContainer) settle() container {
	switch {
	case b.card == 0:
		return nil
	case b.card <= arrayMaxCardinality:
		return b.toArray()
	}
	b.words = b.used()
	return b
}

func (b *bitsetContainer) and(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		return o.and(b)
	case *bitsetContainer:
		out := newBitsetContainer(min(len(b.words), len(o.words)))
		card := 0
		for i := range out.words {
			w := b.words[i] & o.words[i]
			out.words[i] = w
			card += bits.OnesCount64(w)
		}
		out.card = card
		return out.settle()
	case *runContainer:
		return o.and(b)
	}
	return nil
}

func (b *bitsetContainer) or(other container) container {
	if o, ok := other.(*bitsetContainer); ok && len(o.words) > len(b.words) {
		return o.or(b)
	}
	out := b.clone().(*bitsetContainer)
	switch o := other.(type) {
	case *arrayContainer:
		for _, v := range o.values {
			out.set(v)
		}
	case *bitsetContainer:
		for i, w := range o.words {
			out.words[i] |= w
		}
		card := 0
		for _, w := range out.words {
			card += bits.OnesCount64(w)
		}
		out.card = card
	case *runContainer:
		for _, r := range o.runs {
			for v := int(r.start); v <= int(r.start)+int(r.length); v++ {
				out.set(uint16(v))
			}
		}
	}
	return out
}

func (b *bitsetContainer) andNot(other container) container {
	out := b.clone().(*bitsetContainer)
	switch o := other.(type) {
	case *arrayContainer:
		for _, v := range o.values {
			out.clear(v)
		}
	case *bitsetContainer:
		card := 0
		for i := range out.words {
			w := out.words[i]
			if i < len(o.words) {
				w &^= o.words[i]
			}
			out.words[i] = w
			card += bits.OnesCount64(w)
		}
		out.card = card
	case *runContainer:
		for _, r := range o.runs {
			for v := int(r.start); v <= int(r.start)+int(r.length); v++ {
				out.clear(uint16(v))
			}
		}
	}
	return out.settle()
}

func (b *bitsetContainer) each(f func(uint16) bool) bool {
	for wi, w := range b.words {
		for w != 0 {
			t := w & -w
			if !f(uint16(wi*64 + bits.TrailingZeros64(w))) {
				return false
			}
			w ^= t
		}
	}
	return true
}

func (b *bitsetContainer) clone() container {
	out := newBitsetContainer(len(b.words))
	copy(out.words, b.words)
	out.card = b.card
	return out
}

func (b *bitsetContainer) sizeBytes() int { return 8 * len(b.words) }

// --- run container ---------------------------------------------------------

// interval16 is a closed run [start, start+length].
type interval16 struct {
	start  uint16
	length uint16
}

// end returns the last value of the run, widened so 65535 does not wrap.
func (r interval16) end() uint32 { return uint32(r.start) + uint32(r.length) }

// runContainer stores sorted, non-overlapping, non-adjacent runs. It is the
// layout of choice for chunks with long consecutive stretches, which arise
// naturally in grove when record ids are assigned sequentially. card caches
// the number of values the runs cover: every multi-way AND orders its operands
// by cardinality, and summing a few hundred runs per operand per query showed
// up in profiles. It is set at construction and kept exact by add/remove —
// never computed lazily, because column bitmaps are read concurrently.
type runContainer struct {
	runs []interval16
	card int
}

// newRunContainer wraps sorted, non-overlapping, non-adjacent runs.
func newRunContainer(runs []interval16) *runContainer {
	card := 0
	for _, run := range runs {
		card += int(run.length) + 1
	}
	return &runContainer{runs: runs, card: card}
}

func (r *runContainer) searchRun(v uint16) (int, bool) {
	lo, hi := 0, len(r.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		run := r.runs[mid]
		switch {
		case v < run.start:
			hi = mid
		case uint32(v) > uint32(run.start)+uint32(run.length):
			lo = mid + 1
		default:
			return mid, true
		}
	}
	return lo, false
}

func (r *runContainer) contains(v uint16) bool {
	_, found := r.searchRun(v)
	return found
}

func (r *runContainer) cardinality() int { return r.card }

func (r *runContainer) max() uint16 { return uint16(r.runs[len(r.runs)-1].end()) }

func (r *runContainer) add(v uint16) (container, bool) {
	i, found := r.searchRun(v)
	if found {
		return r, false
	}
	r.card++
	// Try extending the previous or next run, merging if they now touch.
	extendPrev := i > 0 && uint32(r.runs[i-1].start)+uint32(r.runs[i-1].length)+1 == uint32(v)
	extendNext := i < len(r.runs) && uint32(r.runs[i].start) == uint32(v)+1
	switch {
	case extendPrev && extendNext:
		r.runs[i-1].length += r.runs[i].length + 2
		r.runs = append(r.runs[:i], r.runs[i+1:]...)
	case extendPrev:
		r.runs[i-1].length++
	case extendNext:
		r.runs[i].start = v
		r.runs[i].length++
	default:
		r.runs = append(r.runs, interval16{})
		copy(r.runs[i+1:], r.runs[i:])
		r.runs[i] = interval16{start: v}
	}
	return r, true
}

func (r *runContainer) remove(v uint16) (container, bool) {
	i, found := r.searchRun(v)
	if !found {
		return r, false
	}
	r.card--
	run := r.runs[i]
	end := uint32(run.start) + uint32(run.length)
	switch {
	case run.length == 0:
		r.runs = append(r.runs[:i], r.runs[i+1:]...)
	case v == run.start:
		r.runs[i].start++
		r.runs[i].length--
	case uint32(v) == end:
		r.runs[i].length--
	default:
		// Split the run in two.
		r.runs = append(r.runs, interval16{})
		copy(r.runs[i+2:], r.runs[i+1:])
		r.runs[i] = interval16{start: run.start, length: v - run.start - 1}
		r.runs[i+1] = interval16{start: v + 1, length: uint16(end - uint32(v) - 1)}
	}
	if len(r.runs) == 0 {
		return newArrayContainer(), true
	}
	return r, true
}

func (r *runContainer) toGeneric() container {
	card := r.cardinality()
	if card > arrayMaxCardinality {
		b := newBitsetContainer(int(r.max()>>6) + 1)
		for _, run := range r.runs {
			for v := uint32(run.start); v <= uint32(run.start)+uint32(run.length); v++ {
				b.words[v>>6] |= 1 << (v & 63)
			}
		}
		b.card = card
		return b
	}
	out := make([]uint16, 0, card)
	for _, run := range r.runs {
		for v := uint32(run.start); v <= uint32(run.start)+uint32(run.length); v++ {
			out = append(out, uint16(v))
		}
	}
	return &arrayContainer{values: out}
}

func (r *runContainer) and(other container) container {
	switch o := other.(type) {
	case *runContainer:
		var out []interval16
		i, j := 0, 0
		for i < len(r.runs) && j < len(o.runs) {
			a, b := r.runs[i], o.runs[j]
			aEnd := uint32(a.start) + uint32(a.length)
			bEnd := uint32(b.start) + uint32(b.length)
			lo := maxU32(uint32(a.start), uint32(b.start))
			hi := minU32(aEnd, bEnd)
			if lo <= hi {
				out = append(out, interval16{start: uint16(lo), length: uint16(hi - lo)})
			}
			if aEnd < bEnd {
				i++
			} else {
				j++
			}
		}
		if len(out) == 0 {
			return nil
		}
		return newRunContainer(out)
	case *arrayContainer:
		return o.and(r)
	default:
		return other.and(r.toGeneric())
	}
}

func (r *runContainer) or(other container) container {
	switch o := other.(type) {
	case *runContainer:
		return newRunContainer(mergeRuns(r.runs, o.runs))
	case *arrayContainer:
		out := r.clone().(*runContainer)
		c := container(out)
		for _, v := range o.values {
			c, _ = c.add(v)
		}
		return c
	default:
		return other.or(r.toGeneric())
	}
}

func (r *runContainer) andNot(other container) container {
	return r.toGeneric().andNot(other)
}

func (r *runContainer) each(f func(uint16) bool) bool {
	for _, run := range r.runs {
		for v := uint32(run.start); v <= uint32(run.start)+uint32(run.length); v++ {
			if !f(uint16(v)) {
				return false
			}
		}
	}
	return true
}

func (r *runContainer) clone() container {
	out := make([]interval16, len(r.runs))
	copy(out, r.runs)
	return &runContainer{runs: out, card: r.card}
}

func (r *runContainer) sizeBytes() int { return 4 * len(r.runs) }

// --- shared helpers --------------------------------------------------------

// gallopRatio is the length ratio from which array ∩ array gallops through
// the longer operand instead of probing it: the measured crossover (DESIGN.md
// §10, BenchmarkIntersectArrays).
const gallopRatio = 24

// probeSet is the scratch of the array ∩ array probe: one bit per low value
// of a 64K chunk. It is all zero between steps — each step clears the words
// it set — so one zeroed set serves every step of a conjunction.
type probeSet [bitsetWords]uint64

// intersectInto writes a ∩ b to dst and returns dst's filled prefix, costing
// what its operands cost: a probe through seen when the two are comparable
// in length, a gallop through the longer one when it is at least gallopRatio
// times longer. dst needs min(len(a), len(b)) slots and may be a or b itself
// (the in-place form passes a as dst): both kernels write at or behind the
// index they read, and the probe never reads back the operand dst is. An
// empty operand takes a gallop arm.
//
//grove:hotpath
func intersectInto(dst, a, b []uint16, seen *probeSet) []uint16 {
	switch {
	case len(a)*gallopRatio <= len(b):
		return dst[:gallopIntersect(dst, a, b)]
	case len(b)*gallopRatio <= len(a):
		return dst[:gallopIntersect(dst, b, a)]
	}
	// Both operands are non-empty here. Filter the one dst is, else the
	// shorter (dst may hold only that many), and probe the other.
	if &dst[0] == &b[0] || &dst[0] != &a[0] && len(b) < len(a) {
		a, b = b, a
	}
	return dst[:probeIntersect(dst, a, b, seen)]
}

// probeIntersect writes the values of keep that probe holds: it sets probe's
// values in seen, filters keep through it without a branch — every value is
// stored and the cursor advances by its bit — and clears what it set, as one
// range when probe's words are at most len(probe), else word by word. Unlike
// a branch-free merge, no load waits on the last compare: each iteration's
// only dependency is the one-cycle cursor add. dst needs len(keep) slots and
// may be keep itself, never probe.
//
//grove:hotpath
func probeIntersect(dst, keep, probe []uint16, seen *probeSet) int {
	words := seen[:]
	for _, v := range probe {
		words[v>>6] |= 1 << (v & 63)
	}
	dst = dst[:len(keep)]
	k := 0
	for _, v := range keep {
		dst[k] = v
		k += int(words[v>>6] >> (v & 63) & 1)
	}
	if lo, hi := int(probe[0]>>6), int(probe[len(probe)-1]>>6); hi-lo < len(probe) {
		clear(words[lo : hi+1])
	} else {
		for _, v := range probe {
			words[v>>6] = 0
		}
	}
	return k
}

// gallopIntersect writes the values of short that long holds: one galloping
// probe into long per value of short, resuming where the last one stopped.
//
//grove:hotpath
func gallopIntersect(dst, short, long []uint16) int {
	j, k := 0, 0
	for _, v := range short {
		if j = gallopValues(long, j, v); j == len(long) {
			break
		}
		if long[j] == v {
			dst[k] = v
			k++
		}
	}
	return k
}

// intersectArrayBitset writes the values of a that words holds to dst (which
// may alias a) and returns the filled prefix. The values past the last word
// are cut off first, with one search.
//
//grove:hotpath
func intersectArrayBitset(dst, a []uint16, words []uint64) []uint16 {
	if n := len(a); n > 0 && int(a[n-1]>>6) >= len(words) {
		a = a[:gallopValues(a, 0, uint16(len(words)<<6))]
	}
	k := 0
	for _, v := range a {
		if words[v>>6]&(1<<(v&63)) != 0 {
			dst[k] = v
			k++
		}
	}
	return dst[:k]
}

// intersectArrayRuns appends to dst the values of sorted a that runs cover
// and returns the extended slice. dst may be a[:0]: the write index never
// passes the read index. Both cursors gallop — an exponential probe, then a
// binary search inside the bracket it found — so the cost is linear when the
// two interleave finely and logarithmic in the stretch either side skips,
// instead of one full binary search over the runs per array value.
//
//grove:hotpath
func intersectArrayRuns(dst, a []uint16, runs []interval16) []uint16 {
	i, r := 0, 0
	for i < len(a) && r < len(runs) {
		v, run := a[i], runs[r]
		switch {
		case uint32(v) > run.end():
			r = gallopRuns(runs, r+1, v)
		case v < run.start:
			i = gallopValues(a, i+1, run.start)
		default:
			dst = append(dst, v) //grovevet:ignore hotalloc never grows: in place dst aliases a, and the allocating caller sizes dst to min(len(a), run cardinality)
			i++
		}
	}
	return dst
}

// gallopValues returns the smallest index j >= lo with a[j] >= target, or
// len(a) when there is none: an exponential probe from lo, then a binary
// search inside the bracket the probe found, written out because
// slices.BinarySearch measured up to 1.7× slower here.
//
//grove:hotpath
func gallopValues(a []uint16, lo int, target uint16) int {
	hi, step := lo, 1
	for hi < len(a) && a[hi] < target {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	// a[lo-1] < target, and a[hi] >= target when hi < len(a).
	for n := min(hi, len(a)) - lo; n > 0; {
		half := n >> 1
		if a[lo+half] < target {
			lo += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	return lo
}

// gallopRuns returns the smallest index j >= lo whose run ends at or after
// v, or len(runs) when every remaining run lies below v.
func gallopRuns(runs []interval16, lo int, v uint16) int {
	hi, step := lo, 1
	for hi < len(runs) && runs[hi].end() < uint32(v) {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	j, _ := slices.BinarySearchFunc(runs[lo:min(hi, len(runs))], uint32(v), func(r interval16, v uint32) int {
		if r.end() < v {
			return -1
		}
		return 1 // never "found": the search lands on the first run not below v
	})
	return lo + j
}

func unionSorted(a, b []uint16) []uint16 {
	out := make([]uint16, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func differenceSorted(a, b []uint16) []uint16 {
	var out []uint16
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return out
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// mergeRuns merges two sorted run lists into a sorted, coalesced run list.
func mergeRuns(a, b []interval16) []interval16 {
	all := make([]interval16, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next interval16
		if j >= len(b) || (i < len(a) && a[i].start <= b[j].start) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		if n := len(all); n > 0 {
			prevEnd := uint32(all[n-1].start) + uint32(all[n-1].length)
			if uint32(next.start) <= prevEnd+1 {
				newEnd := uint32(next.start) + uint32(next.length)
				if newEnd > prevEnd {
					all[n-1].length = uint16(newEnd - uint32(all[n-1].start))
				}
				continue
			}
		}
		all = append(all, next)
	}
	return all
}

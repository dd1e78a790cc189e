package bitmap

import (
	"math/bits"
	"slices"
)

// Container is the per-64K-chunk storage unit of a Bitmap. The low 16 bits of
// the values in a chunk are held in one of three physical layouts — a sorted
// uint16 array, a 1024-word bitset, or a sequence of runs — mirroring the
// Roaring bitmap design. Containers are immutable from the point of view of
// binary operations: And/Or/AndNot always return fresh containers (or nil for
// empty results), while add/remove mutate in place and may change layout.
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
	xor(other container) container
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
	bitsetWords         = 1024 // 65536 bits
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
	b := newBitsetContainer()
	for _, v := range a.values {
		b.words[v>>6] |= 1 << (v & 63)
	}
	b.card = len(a.values)
	return b
}

func (a *arrayContainer) and(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		out := intersectSorted(a.values, o.values)
		if len(out) == 0 {
			return nil
		}
		return &arrayContainer{values: out}
	case *bitsetContainer:
		var out []uint16
		for _, v := range a.values {
			if o.get(v) {
				out = append(out, v)
			}
		}
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

func (a *arrayContainer) xor(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		out := symmetricDiffSorted(a.values, o.values)
		if len(out) == 0 {
			return nil
		}
		if len(out) > arrayMaxCardinality {
			return (&arrayContainer{values: out}).toBitset()
		}
		return &arrayContainer{values: out}
	default:
		return genericXor(a, other)
	}
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

// bitsetContainer stores a full 65536-bit bitset plus a cached cardinality.
// It is the layout of choice for dense chunks (>4096 values).
type bitsetContainer struct {
	words []uint64
	card  int
}

func newBitsetContainer() *bitsetContainer {
	return &bitsetContainer{words: make([]uint64, bitsetWords)}
}

func (b *bitsetContainer) get(v uint16) bool {
	return b.words[v>>6]&(1<<(v&63)) != 0
}

func (b *bitsetContainer) set(v uint16) bool {
	w, m := v>>6, uint64(1)<<(v&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.card++
	return true
}

func (b *bitsetContainer) clear(v uint16) bool {
	w, m := v>>6, uint64(1)<<(v&63)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.card--
	return true
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
	for wi := bitsetWords - 1; wi >= 0; wi-- {
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
			out = append(out, uint16(wi*64+popcountTrailing(w)))
			w ^= t
		}
	}
	return &arrayContainer{values: out}
}

func (b *bitsetContainer) and(other container) container {
	switch o := other.(type) {
	case *arrayContainer:
		return o.and(b)
	case *bitsetContainer:
		out := newBitsetContainer()
		card := 0
		for i := range out.words {
			w := b.words[i] & o.words[i]
			out.words[i] = w
			card += popcount(w)
		}
		if card == 0 {
			return nil
		}
		out.card = card
		if card <= arrayMaxCardinality {
			return out.toArray()
		}
		return out
	case *runContainer:
		return o.and(b)
	}
	return nil
}

func (b *bitsetContainer) or(other container) container {
	out := b.clone().(*bitsetContainer)
	switch o := other.(type) {
	case *arrayContainer:
		for _, v := range o.values {
			out.set(v)
		}
	case *bitsetContainer:
		card := 0
		for i := range out.words {
			w := out.words[i] | o.words[i]
			out.words[i] = w
			card += popcount(w)
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
			w := out.words[i] &^ o.words[i]
			out.words[i] = w
			card += popcount(w)
		}
		out.card = card
	case *runContainer:
		for _, r := range o.runs {
			for v := int(r.start); v <= int(r.start)+int(r.length); v++ {
				out.clear(uint16(v))
			}
		}
	}
	if out.card == 0 {
		return nil
	}
	if out.card <= arrayMaxCardinality {
		return out.toArray()
	}
	return out
}

func (b *bitsetContainer) xor(other container) container {
	switch o := other.(type) {
	case *bitsetContainer:
		out := newBitsetContainer()
		card := 0
		for i := range out.words {
			w := b.words[i] ^ o.words[i]
			out.words[i] = w
			card += popcount(w)
		}
		if card == 0 {
			return nil
		}
		out.card = card
		if card <= arrayMaxCardinality {
			return out.toArray()
		}
		return out
	default:
		return genericXor(b, other)
	}
}

func (b *bitsetContainer) each(f func(uint16) bool) bool {
	for wi, w := range b.words {
		for w != 0 {
			t := w & -w
			if !f(uint16(wi*64 + popcountTrailing(w))) {
				return false
			}
			w ^= t
		}
	}
	return true
}

func (b *bitsetContainer) clone() container {
	out := newBitsetContainer()
	copy(out.words, b.words)
	out.card = b.card
	return out
}

func (b *bitsetContainer) sizeBytes() int { return 8 * bitsetWords }

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
		b := newBitsetContainer()
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

func (r *runContainer) xor(other container) container {
	return genericXor(r, other)
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

func genericXor(a, b container) container {
	// (a OR b) AND NOT (a AND b), computed via the specialized paths.
	union := a.or(b)
	inter := a.and(b)
	if inter == nil {
		if union == nil || union.cardinality() == 0 {
			return nil
		}
		return union
	}
	out := union.andNot(inter)
	if out == nil || out.cardinality() == 0 {
		return nil
	}
	return out
}

func intersectSorted(a, b []uint16) []uint16 {
	var out []uint16
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
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
// len(a) when there is none.
func gallopValues(a []uint16, lo int, target uint16) int {
	hi, step := lo, 1
	for hi < len(a) && a[hi] < target {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	j, _ := slices.BinarySearch(a[lo:min(hi, len(a))], target)
	return lo + j
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

func symmetricDiffSorted(a, b []uint16) []uint16 {
	var out []uint16
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
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func popcount(w uint64) int {
	// Hacker's Delight bit-twiddling popcount; avoids math/bits only for
	// symmetry with popcountTrailing. math/bits would be equally fine.
	w -= (w >> 1) & 0x5555555555555555
	w = (w & 0x3333333333333333) + ((w >> 2) & 0x3333333333333333)
	w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((w * 0x0101010101010101) >> 56)
}

func popcountTrailing(w uint64) int {
	// Number of trailing zeros of w (w must be non-zero).
	return popcount((w & -w) - 1)
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

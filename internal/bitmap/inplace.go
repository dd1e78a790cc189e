package bitmap

// Destructive intersection kernels. The allocating And/AndAll path creates a
// fresh Bitmap per pairwise step, which dominates the structural phase of
// wide query plans (one AND per query edge). The kernels below intersect into
// an accumulator the caller owns: AndAllInto performs the whole conjunction
// with O(1) bitmap allocations regardless of plan width, and AndInPlace
// mutates the accumulator's containers directly wherever the layouts allow.

// Clear empties the bitmap while retaining the allocated chunk slices, so an
// accumulator can be reused across queries without reallocating.
func (b *Bitmap) Clear() {
	for i := range b.containers {
		b.containers[i] = nil
	}
	b.keys = b.keys[:0]
	b.containers = b.containers[:0]
}

// CopyFrom replaces b's contents with a deep copy of other, reusing b's
// chunk slices where capacity allows.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	b.Clear()
	for i, c := range other.containers {
		b.keys = append(b.keys, other.keys[i])
		b.containers = append(b.containers, c.clone())
	}
}

// AndInPlace replaces b with b ∩ other, compacting b's chunk slices in place
// and mutating b's containers directly where the layout pair allows (array
// receivers filter in place; bitset receivers mask word-wise). other is never
// modified. Callers must own b exclusively: shared column bitmaps must go
// through the allocating And instead.
//
//grove:hotpath
func (b *Bitmap) AndInPlace(other *Bitmap) {
	out := 0
	i, j := 0, 0
	for i < len(b.keys) && j < len(other.keys) {
		switch {
		case b.keys[i] < other.keys[j]:
			i++
		case b.keys[i] > other.keys[j]:
			j++
		default:
			if c := andContainerInPlace(b.containers[i], other.containers[j]); c != nil {
				b.keys[out] = b.keys[i]
				b.containers[out] = c
				out++
			}
			i++
			j++
		}
	}
	for k := out; k < len(b.containers); k++ {
		b.containers[k] = nil
	}
	b.keys = b.keys[:out]
	b.containers = b.containers[:out]
}

// AndAllInto intersects all given bitmaps into dst and returns dst (a fresh
// bitmap when dst is nil). dst is cleared first and must not alias any input.
// Inputs are reordered in place by ascending cardinality so intermediate
// results shrink as early as possible, and the loop exits as soon as the
// accumulator is empty. The inputs themselves are never modified; the result
// containers are owned by dst (cloned or freshly computed), so dst can be
// retained — e.g. cached — after further mutations to the inputs.
//
// Per call this allocates one cardinality scratch slice and the result
// containers of the first pairwise step; every later step mutates those in
// place. Bitmap allocations are O(1) regardless of len(bitmaps).
//
//grove:hotpath
func AndAllInto(dst *Bitmap, bitmaps ...*Bitmap) *Bitmap {
	if dst == nil {
		dst = New() //grovevet:ignore hotalloc nil-dst convenience path; steady-state callers pass a reused accumulator
	}
	dst.Clear()
	switch len(bitmaps) {
	case 0:
		return dst
	case 1:
		dst.CopyFrom(bitmaps[0])
		return dst
	}
	sortByCardinality(bitmaps)
	if bitmaps[0].IsEmpty() {
		return dst
	}
	// First pairwise step materializes fresh containers into dst; the
	// remaining steps intersect in place.
	dst.andInto(bitmaps[0], bitmaps[1])
	for _, bm := range bitmaps[2:] {
		if dst.IsEmpty() {
			return dst
		}
		dst.AndInPlace(bm)
	}
	return dst
}

// sortByCardinality orders bitmaps ascending by cardinality, computing each
// cardinality once.
func sortByCardinality(bitmaps []*Bitmap) {
	cards := make([]int, len(bitmaps))
	for i, bm := range bitmaps {
		cards[i] = bm.Cardinality()
	}
	for i := 1; i < len(bitmaps); i++ {
		for j := i; j > 0 && cards[j-1] > cards[j]; j-- {
			cards[j-1], cards[j] = cards[j], cards[j-1]
			bitmaps[j-1], bitmaps[j] = bitmaps[j], bitmaps[j-1]
		}
	}
}

// andInto fills the cleared receiver with x ∩ y using the allocating
// container kernels (the inputs stay untouched).
func (b *Bitmap) andInto(x, y *Bitmap) {
	i, j := 0, 0
	for i < len(x.keys) && j < len(y.keys) {
		switch {
		case x.keys[i] < y.keys[j]:
			i++
		case x.keys[i] > y.keys[j]:
			j++
		default:
			if c := x.containers[i].and(y.containers[j]); c != nil && c.cardinality() > 0 {
				b.keys = append(b.keys, x.keys[i])
				b.containers = append(b.containers, c)
			}
			i++
			j++
		}
	}
}

// andContainerInPlace intersects src into dst, mutating dst where possible.
// It returns the surviving container (possibly dst itself, possibly a more
// compact replacement) or nil when the intersection is empty. src is never
// modified. Layout invariants match the allocating kernels: results at or
// below arrayMaxCardinality are stored as arrays.
//
//grove:hotpath
func andContainerInPlace(dst, src container) container {
	switch d := dst.(type) {
	case *arrayContainer:
		switch s := src.(type) {
		case *arrayContainer:
			d.values = intersectSortedInPlace(d.values, s.values)
		case *runContainer:
			d.values = intersectArrayRuns(d.values[:0], d.values, s.runs)
		case *bitsetContainer:
			out := 0
			for _, v := range d.values {
				if s.get(v) {
					d.values[out] = v
					out++
				}
			}
			d.values = d.values[:out]
		}
		if len(d.values) == 0 {
			return nil
		}
		return d
	case *bitsetContainer:
		switch s := src.(type) {
		case *bitsetContainer:
			d.andBitsetInPlace(s)
		case *arrayContainer:
			d.andArrayInPlace(s)
		case *runContainer:
			d.andRunInPlace(s)
		}
		if d.card == 0 {
			return nil
		}
		if d.card <= arrayMaxCardinality {
			return d.toArray()
		}
		return d
	default:
		// Run accumulators are rare (only a run ∩ run first step yields
		// one); fall back to the allocating kernel, which walks run ∩ array
		// with the same galloping cursors as the array receiver above.
		c := dst.and(src)
		if c == nil || c.cardinality() == 0 {
			return nil
		}
		return c
	}
}

// intersectSortedInPlace writes the intersection of sorted a and b into a's
// prefix (safe: the write index never passes the read index) and returns the
// shortened slice.
func intersectSortedInPlace(a, b []uint16) []uint16 {
	out := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			a[out] = a[i]
			out++
			i++
			j++
		}
	}
	return a[:out]
}

func (b *bitsetContainer) andBitsetInPlace(o *bitsetContainer) {
	card := 0
	for i := range b.words {
		w := b.words[i] & o.words[i]
		b.words[i] = w
		card += popcount(w)
	}
	b.card = card
}

// andArrayInPlace keeps only the bits of b that appear in the sorted array o,
// building one mask per 64-bit word in a single pass over o.
func (b *bitsetContainer) andArrayInPlace(o *arrayContainer) {
	idx := 0
	card := 0
	for wi := range b.words {
		var mask uint64
		for idx < len(o.values) && int(o.values[idx]>>6) == wi {
			mask |= 1 << (o.values[idx] & 63)
			idx++
		}
		w := b.words[wi] & mask
		b.words[wi] = w
		card += popcount(w)
	}
	b.card = card
}

// andRunInPlace keeps only the bits of b covered by o's runs.
func (b *bitsetContainer) andRunInPlace(o *runContainer) {
	card := 0
	ri := 0
	for wi := range b.words {
		lo := uint32(wi * 64)
		hi := lo + 63
		for ri < len(o.runs) && uint32(o.runs[ri].start)+uint32(o.runs[ri].length) < lo {
			ri++
		}
		var mask uint64
		for k := ri; k < len(o.runs); k++ {
			start := uint32(o.runs[k].start)
			if start > hi {
				break
			}
			end := start + uint32(o.runs[k].length)
			a := start
			if a < lo {
				a = lo
			}
			z := end
			if z > hi {
				z = hi
			}
			mask |= (^uint64(0) >> (63 - (z - lo))) & (^uint64(0) << (a - lo))
		}
		w := b.words[wi] & mask
		b.words[wi] = w
		card += popcount(w)
	}
	b.card = card
}

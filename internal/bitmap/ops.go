package bitmap

// Intersects reports whether b and other share at least one value, with
// early exit — cheaper than And(...).IsEmpty() when an intersection exists.
func (b *Bitmap) Intersects(other *Bitmap) bool {
	i, j := 0, 0
	for i < len(b.keys) && j < len(other.keys) {
		switch {
		case b.keys[i] < other.keys[j]:
			i++
		case b.keys[i] > other.keys[j]:
			j++
		default:
			if containersIntersect(b.containers[i], other.containers[j]) {
				return true
			}
			i++
			j++
		}
	}
	return false
}

func containersIntersect(a, b container) bool {
	// Iterate the smaller container, probing the larger.
	if a.cardinality() > b.cardinality() {
		a, b = b, a
	}
	hit := false
	a.each(func(v uint16) bool {
		if b.contains(v) {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// OrCardinality returns |b ∪ other| without materializing the union:
// |A| + |B| − |A ∩ B|.
func (b *Bitmap) OrCardinality(other *Bitmap) int {
	return b.Cardinality() + other.Cardinality() - b.AndCardinality(other)
}

// AndNotCardinality returns |b − other| without materializing the
// difference.
func (b *Bitmap) AndNotCardinality(other *Bitmap) int {
	return b.Cardinality() - b.AndCardinality(other)
}

// RemoveRange deletes every value in [lo, hi). It operates at container
// granularity: chunks fully inside the range are dropped whole, and only the
// (at most two) boundary chunks are rewritten — O(chunks + boundary work)
// rather than O(n·remove) collect-then-delete.
func (b *Bitmap) RemoveRange(lo, hi uint32) {
	if hi <= lo || len(b.keys) == 0 {
		return
	}
	hiIncl := hi - 1
	loKey, hiKey := uint16(lo>>16), uint16(hiIncl>>16)
	start, _ := b.chunkIndex(loKey)
	write := start
	for i := start; i < len(b.keys); i++ {
		key := b.keys[i]
		if key > hiKey {
			// Past the range: slide the surviving tail down.
			b.keys[write] = key
			b.containers[write] = b.containers[i]
			write++
			continue
		}
		chunkLo, chunkHi := uint16(0), uint16(0xffff)
		if key == loKey {
			chunkLo = uint16(lo)
		}
		if key == hiKey {
			chunkHi = uint16(hiIncl)
		}
		if chunkLo == 0 && chunkHi == 0xffff {
			continue // chunk fully covered: drop it whole
		}
		doomed := newRunContainer([]interval16{{start: chunkLo, length: chunkHi - chunkLo}})
		if c := b.containers[i].andNot(doomed); c != nil && c.cardinality() > 0 {
			b.keys[write] = key
			b.containers[write] = c
			write++
		}
	}
	for k := write; k < len(b.containers); k++ {
		b.containers[k] = nil
	}
	b.keys = b.keys[:write]
	b.containers = b.containers[:write]
}

package bitmap

import "math/bits"

// Rank returns the number of values in the bitmap that are ≤ v. Together with
// Contains it lets a sparse column translate a record id into a dense value
// index: index = Rank(rec) - 1 when Contains(rec).
func (b *Bitmap) Rank(v uint32) int {
	key, low := uint16(v>>16), uint16(v)
	n := 0
	for i, k := range b.keys {
		switch {
		case k < key:
			n += b.containers[i].cardinality()
		case k == key:
			n += containerRank(b.containers[i], low)
			return n
		default:
			return n
		}
	}
	return n
}

// containerRank counts values ≤ v inside a single container.
func containerRank(c container, v uint16) int {
	switch cc := c.(type) {
	case *arrayContainer:
		i, found := cc.indexOf(v)
		if found {
			return i + 1
		}
		return i
	case *bitsetContainer:
		word := int(v >> 6)
		if word >= len(cc.words) {
			return cc.card
		}
		n := 0
		for i := 0; i < word; i++ {
			n += bits.OnesCount64(cc.words[i])
		}
		// Mask off bits above v within its word.
		shift := uint(v&63) + 1
		var mask uint64
		if shift == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1) << shift) - 1
		}
		n += bits.OnesCount64(cc.words[word] & mask)
		return n
	case *runContainer:
		n := 0
		for _, r := range cc.runs {
			if uint32(r.start) > uint32(v) {
				break
			}
			end := uint32(r.start) + uint32(r.length)
			if uint32(v) >= end {
				n += int(r.length) + 1
			} else {
				n += int(uint32(v)-uint32(r.start)) + 1
				break
			}
		}
		return n
	}
	return 0
}

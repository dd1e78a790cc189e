package bitmap

// ContainerLayout describes one container for tests outside the package:
// its layout, the bytes that layout holds, and the fewest bytes any of its
// array, range-sized bitset and run forms would hold — 2 a value, 8 a word
// up to the word of the highest value, 4 a run — counted from its values.
type ContainerLayout struct {
	Layout         string
	Held, Smallest int
}

// ContainerLayouts returns the layout of every container of b.
func ContainerLayouts(b *Bitmap) []ContainerLayout {
	out := make([]ContainerLayout, 0, len(b.containers))
	for _, c := range b.containers {
		runs, prev := 0, -2
		c.each(func(v uint16) bool {
			if int(v) != prev+1 {
				runs++
			}
			prev = int(v)
			return true
		})
		var name string
		switch c.(type) {
		case *arrayContainer:
			name = "array"
		case *bitsetContainer:
			name = "bitset"
		case *runContainer:
			name = "run"
		}
		out = append(out, ContainerLayout{
			Layout:   name,
			Held:     c.sizeBytes(),
			Smallest: min(2*c.cardinality(), 8*(int(c.max()>>6)+1), 4*runs),
		})
	}
	return out
}

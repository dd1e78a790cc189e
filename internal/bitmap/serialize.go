package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Binary layout (little-endian):
//
//	magic   uint32  = bitmapMagic
//	nChunks uint32
//	per chunk:
//	  key   uint16
//	  kind  uint8   (0=array, 2=run, 3=bitset; 1=full bitset, read only)
//	  n     uint32  (array: #values, run: #runs, bitset: #words,
//	                 full bitset: cardinality)
//	  payload       (n values, n runs, n words, or 1024 words)
//
// A bitset chunk holds its words up to the highest set one, so its last word
// is never zero. Kind 1, always 1024 words, is what builds before kind 3
// wrote; it still loads, into a range-sized bitset. A build that predates
// kind 3 rejects it with "bitmap: unknown container kind 3".
const bitmapMagic = 0x47525642 // "GRVB"

const (
	kindArray      = 0
	kindFullBitset = 1
	kindRun        = 2
	kindBitset     = 3
)

// ErrCorrupt is wrapped by every error ReadFrom returns for bytes that are
// not an encoding WriteTo could have produced; input that ends early gives
// io.EOF or io.ErrUnexpectedEOF instead.
var ErrCorrupt = errors.New("bitmap: corrupt encoding")

// corrupt returns an error wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// WriteTo serializes the bitmap. It implements io.WriterTo.
func (b *Bitmap) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], bitmapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(b.keys)))
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, err
	}
	for i, c := range b.containers {
		if err := writeContainer(cw, b.keys[i], c); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

func writeContainer(w io.Writer, key uint16, c container) error {
	head := make([]byte, 7)
	binary.LittleEndian.PutUint16(head[0:], key)
	switch cc := c.(type) {
	case *arrayContainer:
		head[2] = kindArray
		binary.LittleEndian.PutUint32(head[3:], uint32(len(cc.values)))
		if _, err := w.Write(head); err != nil {
			return err
		}
		buf := make([]byte, 2*len(cc.values))
		for i, v := range cc.values {
			binary.LittleEndian.PutUint16(buf[2*i:], v)
		}
		_, err := w.Write(buf)
		return err
	case *bitsetContainer:
		words := cc.used()
		head[2] = kindBitset
		binary.LittleEndian.PutUint32(head[3:], uint32(len(words)))
		if _, err := w.Write(head); err != nil {
			return err
		}
		buf := make([]byte, 8*len(words))
		for i, word := range words {
			binary.LittleEndian.PutUint64(buf[8*i:], word)
		}
		_, err := w.Write(buf)
		return err
	case *runContainer:
		head[2] = kindRun
		binary.LittleEndian.PutUint32(head[3:], uint32(len(cc.runs)))
		if _, err := w.Write(head); err != nil {
			return err
		}
		buf := make([]byte, 4*len(cc.runs))
		for i, r := range cc.runs {
			binary.LittleEndian.PutUint16(buf[4*i:], r.start)
			binary.LittleEndian.PutUint16(buf[4*i+2:], r.length)
		}
		_, err := w.Write(buf)
		return err
	default:
		return fmt.Errorf("bitmap: unknown container type %T", c)
	}
}

// ReadFrom deserializes a bitmap previously written with WriteTo, replacing
// the receiver's contents. It implements io.ReaderFrom.
func (b *Bitmap) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return cr.n, fmt.Errorf("bitmap: reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != bitmapMagic {
		return cr.n, corrupt("bad magic %#x", magic)
	}
	nChunks := binary.LittleEndian.Uint32(hdr[4:])
	b.keys = b.keys[:0]
	b.containers = b.containers[:0]
	var prevKey int = -1
	for i := uint32(0); i < nChunks; i++ {
		key, c, err := readContainer(cr)
		if err != nil {
			return cr.n, err
		}
		if int(key) <= prevKey {
			return cr.n, corrupt("chunk keys out of order (%d after %d)", key, prevKey)
		}
		prevKey = int(key)
		b.keys = append(b.keys, key)
		b.containers = append(b.containers, c)
	}
	return cr.n, nil
}

func readContainer(r io.Reader) (uint16, container, error) {
	head := make([]byte, 7)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, fmt.Errorf("bitmap: reading container header: %w", err)
	}
	key := binary.LittleEndian.Uint16(head[0:])
	kind := head[2]
	n := binary.LittleEndian.Uint32(head[3:])
	switch kind {
	case kindArray:
		if n > arrayMaxCardinality {
			return 0, nil, corrupt("array container too large (%d)", n)
		}
		buf := make([]byte, 2*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, nil, err
		}
		values := make([]uint16, n)
		for i := range values {
			values[i] = binary.LittleEndian.Uint16(buf[2*i:])
		}
		return key, &arrayContainer{values: values}, nil
	case kindBitset, kindFullBitset:
		words := int(n)
		if kind == kindFullBitset {
			words = bitsetWords
		} else if words < 1 || words > bitsetWords {
			return 0, nil, corrupt("bitset container of %d words", n)
		}
		buf := make([]byte, 8*words)
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, nil, err
		}
		c := newBitsetContainer(words)
		card := 0
		for i := range c.words {
			c.words[i] = binary.LittleEndian.Uint64(buf[8*i:])
			card += bits.OnesCount64(c.words[i])
		}
		c.card = card
		switch {
		case card == 0:
			return 0, nil, corrupt("empty bitset container")
		case kind == kindBitset && c.words[words-1] == 0:
			return 0, nil, corrupt("bitset container's last word is zero")
		case kind == kindFullBitset && int(n) != card:
			// Recount rather than trust the header: a corrupt cardinality
			// would silently break every population-count consumer.
			return 0, nil, corrupt("bitset container cardinality %d does not match payload (%d bits set)", n, card)
		}
		c.words = c.used()
		return key, c, nil
	case kindRun:
		if n > 1<<15 {
			return 0, nil, corrupt("run container too large (%d runs)", n)
		}
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, nil, err
		}
		runs := make([]interval16, n)
		prevEnd := -1
		for i := range runs {
			runs[i] = interval16{
				start:  binary.LittleEndian.Uint16(buf[4*i:]),
				length: binary.LittleEndian.Uint16(buf[4*i+2:]),
			}
			start, end := int(runs[i].start), int(runs[i].start)+int(runs[i].length)
			if end > 0xFFFF {
				return 0, nil, corrupt("run [%d,%d] exceeds the container's value space", start, end)
			}
			if start <= prevEnd {
				return 0, nil, corrupt("runs out of order or overlapping at [%d,%d]", start, end)
			}
			prevEnd = end
		}
		return key, newRunContainer(runs), nil
	default:
		return 0, nil, corrupt("unknown container kind %d", kind)
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

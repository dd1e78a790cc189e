// Package wal is grove's write-ahead log: an append-only, CRC-framed record
// of the mutations applied to one shard since its last snapshot. The log is
// the durability gap-filler between generational saves — a crash loses at
// most the ops after the last acknowledged fsync, and `Load` replays the
// surviving prefix atop the snapshot generation the log's header pins.
//
// File layout:
//
//	header:  magic | version | shard | baseLSN | gen | crc32c
//	frame*:  len | crc32c(body) | body{kind, lsn, payload}
//
// Every frame carries its own CRC and a log sequence number that must be
// exactly one past its predecessor's; the first frame that is short, fails
// its CRC, or breaks the LSN chain ends the valid prefix — everything after
// it is a torn tail from a crash mid-write and is truncated on reattach.
// All I/O goes through internal/fsio so the crash sweep can fail every
// single operation.
package wal

import (
	"fmt"
	"math"

	"grove/internal/colstore"
	"grove/internal/graph"
)

// Kind identifies the mutation a log frame carries.
type Kind uint8

const (
	// OpAddRecord appends a whole graph record (elements + measures).
	OpAddRecord Kind = 1
	// OpAppendEdge adds one element (edge or node) with an optional measure
	// to an existing record.
	OpAppendEdge Kind = 2
	// OpDelete tombstones a record.
	OpDelete Kind = 3
	// OpUndelete clears a record's tombstone.
	OpUndelete Kind = 4
	// OpTag sets a tag key/value on a record.
	OpTag Kind = 5
)

func (k Kind) String() string {
	switch k {
	case OpAddRecord:
		return "add-record"
	case OpAppendEdge:
		return "append-edge"
	case OpDelete:
		return "delete"
	case OpUndelete:
		return "undelete"
	case OpTag:
		return "tag"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one logged mutation. Payloads carry element *names*, not registry
// edge ids: ids are assigned densely in first-use order, so replaying shards
// sequentially reassigns them deterministically without logging the registry.
type Op struct {
	Kind Kind
	// LSN is assigned by Log.Append and recovered by the decoder.
	LSN uint64
	// Rec is the shard-local record id (every kind except OpAddRecord).
	Rec uint32
	// Row is the flat record of an OpAddRecord: what the log encodes, what the
	// decoder yields and what replay appends.
	Row *graph.Row
	// Record is an input convenience for OpAddRecord: Log.Append logs
	// Record.Row() when Row is nil. The decoder never sets it.
	Record *graph.Record
	// From, To, Measure, Value, HasValue describe an OpAppendEdge element;
	// Measure "" is the default measure, HasValue false a bare element.
	From, To string
	Measure  string
	Value    float64
	HasValue bool
	// Key, Val are the OpTag pair.
	Key, Val string
}

const (
	// maxFrameLen bounds a frame body; anything larger is treated as a torn
	// tail rather than trusted as an allocation size.
	maxFrameLen = 16 << 20
	// frameHeadLen is the fixed prefix of a frame: u32 length + u32 CRC.
	frameHeadLen = 8
	// frameBodyMin is the smallest body: u8 kind + u64 lsn, empty payload.
	frameBodyMin = 9
	// maxStringLen bounds any single string in a payload (u16 length).
	maxStringLen = 1<<16 - 1
)

// enc is a little-endian append-only byte builder for payloads and frames.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = append(e.b, byte(v), byte(v>>8)) }
func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.u32(uint32(v))
	e.u32(uint32(v >> 32))
}
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) error {
	if len(s) > maxStringLen {
		return fmt.Errorf("wal: string of %d bytes exceeds the %d-byte payload limit", len(s), maxStringLen)
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
	return nil
}

// dec is the matching bounds-checked reader. The first out-of-bounds access
// latches err; callers check err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated payload reading %s at offset %d", what, d.off)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail("u16")
		return 0
	}
	v := uint16(d.b[d.off]) | uint16(d.b[d.off+1])<<8
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := uint32(d.b[d.off]) | uint32(d.b[d.off+1])<<8 | uint32(d.b[d.off+2])<<16 | uint32(d.b[d.off+3])<<24
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	lo := d.u32()
	hi := d.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	if d.err != nil || d.off+n > len(d.b) {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// encodePayload serializes the op body (everything after kind+lsn).
func (o *Op) encodePayload() ([]byte, error) {
	e := &enc{}
	switch o.Kind {
	case OpAddRecord:
		row := o.Row
		if row == nil {
			if o.Record == nil {
				return nil, fmt.Errorf("wal: add-record op without a record")
			}
			row = o.Record.Row()
		}
		e.b = make([]byte, 0, 4+32*len(row.Keys))
		e.u32(uint32(len(row.Keys)))
		for i, k := range row.Keys {
			if err := e.str(k.From); err != nil {
				return nil, err
			}
			if err := e.str(k.To); err != nil {
				return nil, err
			}
			c := &row.Cells[i]
			if c.HasValue {
				e.u8(1)
				e.f64(c.Value)
			} else {
				e.u8(0)
			}
			if len(c.Named) > maxStringLen {
				return nil, fmt.Errorf("wal: element %s carries %d named measures, over the %d payload limit", k, len(c.Named), maxStringLen)
			}
			e.u16(uint16(len(c.Named)))
			for _, nv := range c.Named {
				if err := e.str(nv.Name); err != nil {
					return nil, err
				}
				e.f64(nv.Value)
			}
		}
	case OpAppendEdge:
		e.u32(o.Rec)
		if err := e.str(o.From); err != nil {
			return nil, err
		}
		if err := e.str(o.To); err != nil {
			return nil, err
		}
		if err := e.str(o.Measure); err != nil {
			return nil, err
		}
		if o.HasValue {
			e.u8(1)
			e.f64(o.Value)
		} else {
			e.u8(0)
		}
	case OpDelete, OpUndelete:
		e.u32(o.Rec)
	case OpTag:
		e.u32(o.Rec)
		if err := e.str(o.Key); err != nil {
			return nil, err
		}
		if err := e.str(o.Val); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wal: cannot encode unknown op kind %d", o.Kind)
	}
	return e.b, nil
}

// decodePayload parses a payload for kind into op. It either fully succeeds
// or returns an error with op untouched semantically — a partial op is never
// handed to the caller.
func decodePayload(kind Kind, lsn uint64, payload []byte) (Op, error) {
	op := Op{Kind: kind, LSN: lsn}
	d := &dec{b: payload}
	switch kind {
	case OpAddRecord:
		row, err := decodeRow(payload)
		if err != nil {
			return Op{}, err
		}
		op.Row = row
		return op, nil
	case OpAppendEdge:
		op.Rec = d.u32()
		op.From = d.str()
		op.To = d.str()
		op.Measure = d.str()
		op.HasValue = d.u8() == 1
		if op.HasValue {
			op.Value = d.f64()
			if d.err == nil && (math.IsNaN(op.Value) || math.IsInf(op.Value, 0)) {
				return Op{}, fmt.Errorf("wal: append-edge measure must be finite, got %v", op.Value)
			}
		}
	case OpDelete, OpUndelete:
		op.Rec = d.u32()
	case OpTag:
		op.Rec = d.u32()
		op.Key = d.str()
		op.Val = d.str()
		if d.err == nil && op.Key == "" {
			return Op{}, fmt.Errorf("wal: tag op with empty key")
		}
	default:
		return Op{}, fmt.Errorf("wal: unknown op kind %d", kind)
	}
	if d.err != nil {
		return Op{}, d.err
	}
	if d.off != len(payload) {
		return Op{}, fmt.Errorf("wal: %d trailing bytes after %s payload", len(payload)-d.off, kind)
	}
	return op, nil
}

// decodeRow parses an add-record payload straight into a flat row: no
// graph.Record, no maps. Element and measure names are substrings of one
// string copy of the payload, so a frame costs a handful of allocations
// however many elements it carries. The row comes back in payload order;
// graph.AppendRow checks that order (the encoder writes it sorted) instead of
// re-sorting.
func decodeRow(payload []byte) (*graph.Row, error) {
	elems, named, why := measureRow(payload)
	if why != "" {
		return nil, fmt.Errorf("wal: add-record payload of %d bytes: %s", len(payload), why)
	}
	row := &graph.Row{Keys: make([]graph.EdgeKey, elems), Cells: make([]colstore.Cell, elems)}
	var backing []colstore.NamedValue
	if named > 0 {
		backing = make([]colstore.NamedValue, named)
	}
	if why := fillRow(row, backing, string(payload)); why != "" {
		return nil, fmt.Errorf("wal: add-record payload: %s", why)
	}
	return row, nil
}

// le16 reads the little-endian u16 at b[off:], from payload bytes or from the
// string copy of them.
func le16[T []byte | string](b T, off int) int {
	return int(uint16(b[off]) | uint16(b[off+1])<<8)
}

// measureRow walks an add-record payload without building anything: it
// bounds-checks every length, so fillRow can slice freely, and counts the
// elements and named measures so the row is allocated exactly once. why is
// non-empty when the payload is not a whole add-record.
//
//grove:hotpath
func measureRow(b []byte) (elems, named int, why string) {
	if len(b) < 4 {
		return 0, 0, "truncated element count"
	}
	elems = int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	off := 4
	// Each element needs at least from+to lengths, a flag byte and a
	// named-measure count: 7 bytes. Reject counts the payload cannot hold
	// before anything is allocated for them.
	if elems > (len(b)-off)/7 {
		return 0, 0, "element count exceeds the payload"
	}
	for i := 0; i < elems; i++ {
		for s := 0; s < 2; s++ { // from, to
			if off+2 > len(b) {
				return 0, 0, "truncated element name"
			}
			off += 2 + le16(b, off)
		}
		if off+1 > len(b) {
			return 0, 0, "truncated element name"
		}
		if b[off] == 1 {
			off += 8
		}
		off++
		if off+2 > len(b) {
			return 0, 0, "truncated element"
		}
		n := le16(b, off)
		off += 2
		named += n
		for j := 0; j < n; j++ {
			if off+2 > len(b) {
				return 0, 0, "truncated measure name"
			}
			off += 2 + le16(b, off) + 8
		}
	}
	if off != len(b) {
		if off > len(b) {
			return 0, 0, "truncated element"
		}
		return 0, 0, "trailing bytes"
	}
	return elems, named, ""
}

// fillRow decodes s — an add-record payload measureRow accepted — into the
// pre-sized row, carving each cell's named measures out of backing. It
// rejects what the encoder never writes and the apply path must never see: a
// non-finite value, or a named measure spelling out the default name.
//
//grove:hotpath
func fillRow(row *graph.Row, backing []colstore.NamedValue, s string) (why string) {
	off := 4
	str := func() string {
		n := le16(s, off)
		v := s[off+2 : off+2+n]
		off += 2 + n
		return v
	}
	f64 := func() (float64, bool) {
		var u uint64
		for i := 7; i >= 0; i-- {
			u = u<<8 | uint64(s[off+i])
		}
		off += 8
		v := math.Float64frombits(u)
		return v, !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	for i := range row.Keys {
		row.Keys[i].From = str()
		row.Keys[i].To = str()
		c := &row.Cells[i]
		flag := s[off]
		off++
		if flag == 1 {
			var ok bool
			if c.Value, ok = f64(); !ok {
				return "non-finite measure"
			}
			c.HasValue = true
		}
		n := le16(s, off)
		off += 2
		c.Named = backing[:n:n]
		backing = backing[n:]
		for j := range c.Named {
			name := str()
			v, ok := f64()
			if !ok {
				return "non-finite measure"
			}
			if name == graph.DefaultMeasure {
				return "element names the default measure explicitly"
			}
			c.Named[j] = colstore.NamedValue{Name: name, Value: v}
		}
	}
	return ""
}

// encodeFrame wraps a payload in the on-disk frame: length, CRC-32C of the
// body, then the body (kind, lsn, payload).
func encodeFrame(kind Kind, lsn uint64, payload []byte) ([]byte, error) {
	bodyLen := frameBodyMin + len(payload)
	if bodyLen > maxFrameLen {
		return nil, fmt.Errorf("wal: frame body of %d bytes exceeds the %d-byte limit", bodyLen, maxFrameLen)
	}
	e := &enc{b: make([]byte, 0, frameHeadLen+bodyLen)}
	e.u32(uint32(bodyLen))
	e.u32(0) // CRC placeholder
	e.u8(uint8(kind))
	e.u64(lsn)
	e.b = append(e.b, payload...)
	crc := checksum(e.b[frameHeadLen:])
	e.b[4] = byte(crc)
	e.b[5] = byte(crc >> 8)
	e.b[6] = byte(crc >> 16)
	e.b[7] = byte(crc >> 24)
	return e.b, nil
}

// decodeFrame parses the frame starting at b[0]. It returns the decoded op
// and the total frame size. ok=false means the bytes do not contain a whole,
// checksum-valid, decodable frame — the caller treats that point as the torn
// tail. reason explains what broke for inspection tooling.
func decodeFrame(b []byte, wantLSN uint64) (op Op, size int, ok bool, reason string) {
	if len(b) < frameHeadLen {
		return Op{}, 0, false, "short frame header"
	}
	d := &dec{b: b}
	bodyLen := int(d.u32())
	crc := d.u32()
	if bodyLen < frameBodyMin || bodyLen > maxFrameLen {
		return Op{}, 0, false, fmt.Sprintf("implausible frame length %d", bodyLen)
	}
	if len(b) < frameHeadLen+bodyLen {
		return Op{}, 0, false, "short frame body"
	}
	body := b[frameHeadLen : frameHeadLen+bodyLen]
	if checksum(body) != crc {
		return Op{}, 0, false, "frame CRC mismatch"
	}
	kind := Kind(body[0])
	bd := &dec{b: body, off: 1}
	lsn := bd.u64()
	if lsn != wantLSN {
		return Op{}, 0, false, fmt.Sprintf("LSN %d breaks the chain (want %d)", lsn, wantLSN)
	}
	op, err := decodePayload(kind, lsn, body[bd.off:])
	if err != nil {
		return Op{}, 0, false, err.Error()
	}
	return op, frameHeadLen + bodyLen, true, ""
}

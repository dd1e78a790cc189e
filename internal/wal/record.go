// Package wal is grove's write-ahead log: an append-only, CRC-framed record
// of the mutations applied to one shard since its last snapshot. The log is
// the durability gap-filler between generational saves — a crash loses at
// most the ops after the last acknowledged fsync, and `Load` replays the
// surviving prefix atop the snapshot generation the log's header pins.
//
// File layout (format version 2):
//
//	header:   magic | version u32 | shard u32 | baseLSN u64 | gen (u16 len, bytes) | crc32c
//	frame*:   len u32 | crc32c(body) u32 | body{kind u8, lsn u64, payload}
//	payload:  add-record   decls | uvarint n | n × (element [, uvarint m | m × (str name, f64)])
//	          append-edge  decls | uvarint rec | element [, str measure]
//	          delete, undelete  uvarint rec
//	          tag          uvarint rec | str key | str value
//	decls:    uvarint k | k × (str from, str to)
//	element:  uvarint index<<2 | has-named<<1 | has-value [, f64 value]
//	str:      uvarint len | bytes
//
// Elements are not spelled out by name. Each log keeps a key dictionary: the
// first frame that uses an element declares its (from, to) names, in the
// order its elements first use them, and the key takes the next index; every
// element after that is its index. Writer and scanner rebuild the same
// dictionary frame by frame, a checkpoint's Reset starts it empty, and a
// frame that uses an undeclared index or declares a key twice is damage. The
// header layout is the same in every format version, so a log of another
// version still names the snapshot cut it pins.
//
// Every frame carries its own CRC and a log sequence number that must be
// exactly one past its predecessor's; the first frame that is short, fails
// its CRC, or breaks the LSN chain ends the valid prefix — everything after
// it is a torn tail from a crash mid-write and is truncated on reattach.
// All I/O goes through internal/fsio so the crash sweep can fail every
// single operation.
//
// Reading streams. A Reader holds one frame at a time: it reads the file
// through a window that grows only to the largest frame it meets and decodes
// each frame into one reused Op and row, valid until the next frame, with
// the row's node names numbered for the cycle check. Scan is the summary a
// Reader builds — header, dictionary, per-kind counts, where the valid
// prefix ends and why — and keeps no op, so nothing that reads a log holds
// more of it than its largest frame.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

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

// Op is one logged mutation. Frames name elements by the log's own
// dictionary index, never by registry edge id: registry ids are assigned
// outside the log too, and differ between a live run and a replay, so only
// the log's own numbering stays one namespace across a resumed log.
type Op struct {
	Kind Kind
	// LSN is assigned by Log.Append and recovered by the decoder.
	LSN uint64
	// Rec is the shard-local record id (every kind except OpAddRecord).
	Rec uint32
	// Row is the flat record of an OpAddRecord: what the log encodes, what the
	// decoder yields and what replay appends. A decoded row's keys are the
	// dictionary's and each Cells[i].Edge is the dictionary index of
	// Keys[i], for replay to map to a registry id.
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
	// maxFrameLen bounds a frame body: the encoder refuses an op whose frame
	// would be larger, and the scanner treats a larger length as a torn tail
	// rather than trusting it as an allocation size.
	maxFrameLen = 16 << 20
	// frameHeadLen is the fixed prefix of a frame: u32 length + u32 CRC.
	frameHeadLen = 8
	// frameBodyMin is the smallest body: u8 kind + u64 lsn, empty payload.
	frameBodyMin = 9
	// maxGenLen bounds the header's generation string (u16 length).
	maxGenLen = 1<<16 - 1
)

// The low two bits of an element token.
const (
	flagValue = 1 << iota
	flagNamed
)

// enc is a little-endian append-only byte builder. Past limit (when set) it
// stops growing and latches full, so an op too large to frame is refused
// without first being copied.
type enc struct {
	b     []byte
	limit int
	full  bool
}

func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64)    { e.u64(math.Float64bits(v)) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) str(s string) {
	if e.limit > 0 && len(e.b)+binary.MaxVarintLen64+len(s) > e.limit {
		e.full = true
		return
	}
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// element writes an element token and its default value.
func (e *enc) element(index uint32, hasValue bool, v float64, hasNamed bool) {
	t := uint64(index) << 2
	if hasValue {
		t |= flagValue
	}
	if hasNamed {
		t |= flagNamed
	}
	e.uvarint(t)
	if hasValue {
		e.f64(v)
	}
}

// dec is the matching bounds-checked reader. The first failure latches err;
// callers check err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: "+format, args...)
	}
}

func (d *dec) short(what string) { d.failf("truncated payload reading %s at offset %d", what, d.off) }

func (d *dec) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.short("u16")
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.short("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.short("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// finite reads a measure value, refusing what no store holds.
func (d *dec) finite() float64 {
	v := math.Float64frombits(d.u64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.failf("non-finite measure %v", v)
	}
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.short("uvarint")
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint count of items at least min bytes each, refusing one
// the rest of the payload cannot hold before anything is sized by it.
func (d *dec) count(what string, min int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64((len(d.b)-d.off)/min) {
		d.failf("%s count %d exceeds the payload", what, n)
		return 0
	}
	return int(n)
}

// rec reads a record id.
func (d *dec) rec() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.failf("record id %d out of range", v)
	}
	return uint32(v)
}

// bytes reads a uvarint-length-prefixed byte string, aliasing the payload.
func (d *dec) bytes() []byte { return d.take(d.uvarint()) }

// take reads the next n bytes, aliasing the payload.
func (d *dec) take(n uint64) []byte {
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.short("string")
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// encoder turns ops into frames against a log's key dictionary. A Log keeps
// one and uses it under its mutex, so the scratch is reused from frame to
// frame. The keys a frame declares join the dictionary only once the frame
// is written (commit): until then they live in fresh and declared.
type encoder struct {
	// dict maps each declared key to its index; the writer never needs the
	// reverse.
	dict map[graph.EdgeKey]uint32
	// idx holds a row's dictionary indexes between the two passes.
	idx []uint32
	// fresh maps each key the frame declares to its index; declared lists
	// them in index order, from len(dict) on.
	fresh    map[graph.EdgeKey]uint32
	declared []graph.EdgeKey
}

// newEncoder starts from keys, the dictionary of a log's valid prefix in
// index order.
func newEncoder(keys []graph.EdgeKey) *encoder {
	x := &encoder{dict: make(map[graph.EdgeKey]uint32, len(keys)), fresh: make(map[graph.EdgeKey]uint32)}
	x.commit(keys)
	return x
}

// index returns k's dictionary index, declaring k if neither the dictionary
// nor the frame so far has it.
func (x *encoder) index(k graph.EdgeKey) uint32 {
	if i, ok := x.dict[k]; ok {
		return i
	}
	if i, ok := x.fresh[k]; ok {
		return i
	}
	i := uint32(len(x.dict) + len(x.declared))
	x.fresh[k] = i
	x.declared = append(x.declared, k)
	return i
}

// encode encodes op as a whole frame against the dictionary, with its LSN
// and CRC left for seal, and returns the keys the frame declares, cloned so
// that the dictionary pins no caller's strings. The dictionary is not
// changed: commit adds the keys once the frame is written. An op whose frame
// body would exceed maxFrameLen is refused.
func (x *encoder) encode(op *Op) (frame []byte, declared []graph.EdgeKey, err error) {
	x.declared = x.declared[:0]
	if len(x.fresh) > 0 {
		clear(x.fresh)
	}
	e := &enc{limit: frameHeadLen + maxFrameLen}
	// start sizes the frame buffer for about size payload bytes; past the
	// limit the op is refused, so nothing that large is allocated.
	start := func(size int) {
		if size > maxFrameLen {
			e.full, size = true, 0
		}
		e.b = make([]byte, frameHeadLen+frameBodyMin, frameHeadLen+frameBodyMin+size)
	}
	switch op.Kind {
	case OpAddRecord:
		row := op.Row
		if row == nil {
			if op.Record == nil {
				return nil, nil, fmt.Errorf("wal: add-record op without a record")
			}
			row = op.Record.Row()
		}
		x.idx = x.idx[:0]
		for _, k := range row.Keys {
			x.idx = append(x.idx, x.index(k))
		}
		start(x.declSize() + 12*len(row.Keys))
		x.putDecls(e)
		e.uvarint(uint64(len(row.Keys)))
		for i := range row.Keys {
			c := &row.Cells[i]
			e.element(x.idx[i], c.HasValue, c.Value, len(c.Named) > 0)
			if len(c.Named) == 0 {
				continue
			}
			e.uvarint(uint64(len(c.Named)))
			for _, nv := range c.Named {
				e.str(nv.Name)
				e.f64(nv.Value)
			}
		}
	case OpAppendEdge:
		i := x.index(graph.E(op.From, op.To))
		start(x.declSize() + 24 + len(op.Measure))
		x.putDecls(e)
		e.uvarint(uint64(op.Rec))
		e.element(i, op.HasValue, op.Value, op.Measure != "")
		if op.Measure != "" {
			e.str(op.Measure)
		}
	case OpDelete, OpUndelete:
		start(binary.MaxVarintLen32)
		e.uvarint(uint64(op.Rec))
	case OpTag:
		start(2*binary.MaxVarintLen64 + len(op.Key) + len(op.Val))
		e.uvarint(uint64(op.Rec))
		e.str(op.Key)
		e.str(op.Val)
	default:
		return nil, nil, fmt.Errorf("wal: cannot encode unknown op kind %d", op.Kind)
	}
	if e.full || len(e.b) > e.limit {
		return nil, nil, fmt.Errorf("%w: the %s frame exceeds the %d-byte limit", ErrOpTooLarge, op.Kind, maxFrameLen)
	}
	binary.LittleEndian.PutUint32(e.b, uint32(len(e.b)-frameHeadLen))
	e.b[frameHeadLen] = byte(op.Kind)
	if len(x.declared) > 0 {
		declared = make([]graph.EdgeKey, len(x.declared))
		for i, k := range x.declared {
			declared[i] = graph.E(strings.Clone(k.From), strings.Clone(k.To))
		}
	}
	return e.b, declared, nil
}

// declSize is the encoded size of the frame's declarations, near enough to
// size the buffer.
func (x *encoder) declSize() int {
	n := binary.MaxVarintLen32
	for _, k := range x.declared {
		n += 2*binary.MaxVarintLen32 + len(k.From) + len(k.To)
	}
	return n
}

// putDecls writes the frame's declarations.
func (x *encoder) putDecls(e *enc) {
	e.uvarint(uint64(len(x.declared)))
	for _, k := range x.declared {
		e.str(k.From)
		e.str(k.To)
	}
}

// commit adds the keys a written frame declared to the dictionary.
func (x *encoder) commit(declared []graph.EdgeKey) {
	for _, k := range declared {
		x.dict[k] = uint32(len(x.dict))
	}
}

// seal stamps a frame from encode with its LSN and CRC.
func seal(frame []byte, lsn uint64) {
	binary.LittleEndian.PutUint64(frame[frameHeadLen+1:], lsn)
	binary.LittleEndian.PutUint32(frame[4:], checksum(frame[frameHeadLen:]))
}

// decoder reads a log's frames in order, rebuilding its dictionary from the
// declarations as it meets them. Names are interned and numbered in the order
// they are first met, so a name costs one allocation per scan, no decoded
// string pins a frame, and replay's cycle check can compare node numbers. It
// decodes every frame into the same Op, row and scratch, so a steady-state
// frame allocates nothing, and a decoded op is valid until the next frame.
type decoder struct {
	// keys[i] is the key of index i and nodes[i] the numbers of its From and
	// To; declared holds the same keys, to refuse a second declaration.
	keys     []graph.EdgeKey
	nodes    [][2]int32
	declared map[graph.EdgeKey]struct{}
	// names maps each interned name to its number; strs[n] is name n.
	names map[string]int32
	strs  []string
	// op is the frame last decoded, row its add-record row, named the slab
	// of the row's named measures, from and to the node numbers of its keys.
	op       Op
	row      graph.Row
	named    []colstore.NamedValue
	from, to []int32
}

func newDecoder() *decoder {
	return &decoder{declared: make(map[graph.EdgeKey]struct{}), names: make(map[string]int32)}
}

// name reads a string and interns it, returning it and its number.
func (x *decoder) name(d *dec) (string, int32) {
	b := d.bytes()
	if n, ok := x.names[string(b)]; ok {
		return x.strs[n], n
	}
	s, n := string(b), int32(len(x.strs))
	x.names[s] = n
	x.strs = append(x.strs, s)
	return s, n
}

// decodeFrame parses the frame starting at b[0]. It returns the decoded op,
// valid until the next call, and the total frame size. ok=false means the
// bytes do not contain a whole, checksum-valid, decodable frame — the caller
// treats that point as the torn tail. reason explains what broke for
// inspection tooling. The dictionary takes the frame's declarations only
// when ok.
func (x *decoder) decodeFrame(b []byte, wantLSN uint64) (op *Op, size int, ok bool, reason string) {
	if len(b) < frameHeadLen {
		return nil, 0, false, "short frame header"
	}
	bodyLen := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if bodyLen < frameBodyMin || bodyLen > maxFrameLen {
		return nil, 0, false, fmt.Sprintf("implausible frame length %d", bodyLen)
	}
	if len(b) < frameHeadLen+bodyLen {
		return nil, 0, false, "short frame body"
	}
	body := b[frameHeadLen : frameHeadLen+bodyLen]
	if checksum(body) != crc {
		return nil, 0, false, "frame CRC mismatch"
	}
	lsn := binary.LittleEndian.Uint64(body[1:])
	if lsn != wantLSN {
		return nil, 0, false, fmt.Sprintf("LSN %d breaks the chain (want %d)", lsn, wantLSN)
	}
	op, err := x.decodePayload(Kind(body[0]), lsn, body[frameBodyMin:])
	if err != nil {
		return nil, 0, false, err.Error()
	}
	return op, frameHeadLen + bodyLen, true, ""
}

// decodePayload parses a payload for kind into the decoder's op, valid until
// the next call. It either fully succeeds or returns an error with the
// dictionary as it was — a partial op, or a declaration of a refused frame,
// never survives. Beyond truncation it refuses what the encoder never
// writes: an index not yet declared, a key declared twice or out of
// first-use order or never used, a non-finite value, a named measure
// spelling the default name, trailing bytes. Row order is not checked here;
// replay checks it (graph.Row.CheckNodes).
func (x *decoder) decodePayload(kind Kind, lsn uint64, payload []byte) (*Op, error) {
	x.op = Op{Kind: kind, LSN: lsn}
	op := &x.op
	d := &dec{b: payload}
	base := len(x.keys)
	next := base // the next declared index a first use must name
	element := func() (uint32, uint64) {
		t := d.uvarint()
		i := t >> 2
		switch {
		case d.err != nil:
			return 0, 0
		case i >= uint64(len(x.keys)):
			d.failf("element index %d is not declared (%d keys)", i, len(x.keys))
			return 0, 0
		case i > uint64(next):
			d.failf("element index %d is used before index %d", i, next)
		case i == uint64(next):
			next++
		}
		return uint32(i), t & (flagValue | flagNamed)
	}
	switch kind {
	case OpAddRecord, OpAppendEdge:
		for n := d.count("declaration", 2); n > 0 && d.err == nil; n-- {
			from, fromNode := x.name(d)
			to, toNode := x.name(d)
			k := graph.EdgeKey{From: from, To: to}
			if _, dup := x.declared[k]; dup && d.err == nil {
				d.failf("element %v declared twice", k)
			}
			if d.err == nil {
				x.declared[k] = struct{}{}
				x.keys = append(x.keys, k)
				x.nodes = append(x.nodes, [2]int32{fromNode, toNode})
			}
		}
	}
	switch kind {
	case OpAddRecord:
		n := d.count("element", 1)
		row := &x.row
		row.Cells = slices.Grow(row.Cells[:0], n)[:n]
		row.Keys = slices.Grow(row.Keys[:0], n)[:n]
		x.from = slices.Grow(x.from[:0], n)[:n]
		x.to = slices.Grow(x.to[:0], n)[:n]
		named := x.named[:0]
		for i := 0; i < n && d.err == nil; i++ {
			idx, flags := element()
			if d.err != nil {
				break
			}
			c := &row.Cells[i]
			c.Edge, c.Value, c.HasValue = colstore.EdgeID(idx), 0, false
			row.Keys[i] = x.keys[idx]
			x.from[i], x.to[i] = x.nodes[idx][0], x.nodes[idx][1]
			if flags&flagValue != 0 {
				c.Value, c.HasValue = d.finite(), true
			}
			if flags&flagNamed == 0 {
				if c.Named != nil {
					c.Named = nil // a pointer write costs a barrier while the GC marks
				}
				continue
			}
			m := d.count("named measure", 9)
			if m == 0 {
				d.failf("element %v flags named measures but holds none", x.keys[idx])
			}
			start := len(named)
			for j := 0; j < m && d.err == nil; j++ {
				name, _ := x.name(d)
				if name == graph.DefaultMeasure {
					d.failf("element %v names the default measure explicitly", x.keys[idx])
				}
				named = append(named, colstore.NamedValue{Name: name, Value: d.finite()})
			}
			// A later append may move named; this cell keeps the old array,
			// whose values are final.
			c.Named = named[start:len(named):len(named)]
		}
		x.named = named
		op.Row = row
	case OpAppendEdge:
		op.Rec = d.rec()
		idx, flags := element()
		if d.err == nil {
			op.From, op.To = x.keys[idx].From, x.keys[idx].To
		}
		if flags&flagValue != 0 {
			op.Value, op.HasValue = d.finite(), true
		}
		if flags&flagNamed != 0 {
			if op.Measure, _ = x.name(d); op.Measure == graph.DefaultMeasure {
				d.failf("append-edge names the default measure explicitly")
			}
		}
	case OpDelete, OpUndelete:
		op.Rec = d.rec()
	case OpTag:
		op.Rec = d.rec()
		op.Key = string(d.bytes())
		op.Val = string(d.bytes())
		if d.err == nil && op.Key == "" {
			d.failf("tag op with empty key")
		}
	default:
		d.failf("unknown op kind %d", kind)
	}
	if d.err == nil && next != len(x.keys) {
		d.failf("declares %d keys its elements never use", len(x.keys)-next)
	}
	if d.err == nil && d.off != len(payload) {
		d.failf("%d trailing bytes after %s payload", len(payload)-d.off, kind)
	}
	if d.err != nil {
		for _, k := range x.keys[base:] {
			delete(x.declared, k)
		}
		x.keys, x.nodes = x.keys[:base], x.nodes[:base]
		return nil, d.err
	}
	return op, nil
}

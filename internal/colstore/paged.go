package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"grove/internal/agg"
	"grove/internal/fsio"
	"grove/internal/pagepool"
)

// Paged measure columns. The v2 snapshot format stores a measure column's
// values as fixed-size blocks of BlockValues values in rank space (value
// index x lives in block x/BlockValues). Each block carries a zone map
// (total-order min/max of its values) and is stored raw unless one of three
// lightweight encodings saves at least an eighth of its bytes (see
// blockEncoder.encode). Loading a v2 snapshot decodes nothing: blocks are
// paged in lazily through the relation's pagepool.Pool on first access and
// evicted under memory pressure, so the resident footprint tracks the working
// set instead of the dataset. A reader holds a block only while it has the
// block's pool frame pinned; every kernel in this package unpins before it
// returns.
//
// Zone-map skipping: MinReplaces/MaxReplaces define a total order on
// non-NaN float64 (with -0 ordered before +0), and a block's zone min is its
// total-order minimum. For a MIN aggregate with running accumulator acc,
// !MinReplaces(acc, zoneMin) implies !MinReplaces(acc, v) for every v in the
// block, and acc only tightens as the fold proceeds — so a skipped block can
// never influence the final accumulator, at any pool size, bit for bit.

// BlockValues is the number of measure values per storage block.
const BlockValues = 4096

// Block encodings, chosen per block at write time.
const (
	encRaw       = 0 // 8 bytes per value, little-endian float64 bits
	encXor       = 1 // first value raw, then uvarint(bits XOR prev bits) per value
	encDict      = 2 // u16 dict size (≤256), dict of raw values, u8 index per value
	encRLE       = 3 // runs of uvarint(length) + raw value
	numEncodings = 4
)

// EncodingName returns the human-readable name of a block encoding tag.
func EncodingName(enc int) string {
	switch enc {
	case encRaw:
		return "raw"
	case encXor:
		return "xor"
	case encDict:
		return "dict"
	case encRLE:
		return "rle"
	}
	return fmt.Sprintf("enc%d", enc)
}

// maxBlockEncLen bounds a single block's encoded payload. The worst real
// encoding is XOR at 8 + 10·(BlockValues-1) bytes; anything larger in a
// manifest is corruption.
const maxBlockEncLen = 8 + 10*BlockValues

// blockMeta is the in-memory block index entry: where the block's payload
// sits in data.bin, how it is encoded, and its zone map.
type blockMeta struct {
	off     int64 // absolute payload offset in data.bin
	encLen  uint32
	enc     uint8
	count   uint16 // values in this block (BlockValues except the last)
	minBits uint64 // Float64bits of the total-order minimum
	maxBits uint64 // Float64bits of the total-order maximum
}

// blockMetaDiskSize is the on-disk size of one block index entry:
// u32 encLen + u8 enc + u16 count + u64 min + u64 max.
const blockMetaDiskSize = 4 + 1 + 2 + 8 + 8

// pageTokens hands out process-unique column tokens for pool keys, so blocks
// of dropped or reloaded columns can never be served to a new column that
// happens to reuse memory.
var pageTokens atomic.Uint64

// blocksSkipped counts measure blocks whose zone map proved they cannot
// affect a MIN/MAX aggregate. Exposed as grove_scan_blocks_skipped_total.
var blocksSkipped atomic.Int64

// BlocksSkipped returns how many measure blocks zone maps skipped in this
// process.
func BlocksSkipped() int64 { return blocksSkipped.Load() }

// --- page source -------------------------------------------------------------

// pageSource reads block payloads from one snapshot's data.bin. The file
// handle is opened lazily on the first fault and kept for the relation's
// lifetime; I/O or decode errors latch sticky (the first error wins) so the
// query layer can distinguish "zero because absent" from "zero because the
// disk failed" after a scan.
type pageSource struct {
	fs   fsio.FS
	path string

	mu  sync.RWMutex // guards f: written by the lazy open and close, read-held across a positional read
	f   fsio.File
	err atomic.Pointer[error]
}

func newPageSource(fs fsio.FS, path string) *pageSource {
	return &pageSource{fs: fs, path: path}
}

// fail latches err as the source's sticky error (first one wins).
func (s *pageSource) fail(err error) {
	s.err.CompareAndSwap(nil, &err)
}

// Err returns the sticky error, if any fault has failed.
func (s *pageSource) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// readAt fills p from the absolute offset off. Reads of different blocks run
// concurrently on the one shared handle (fsio.File.ReadAt allows it); the
// read lock only keeps close from pulling the handle out from under them.
func (s *pageSource) readAt(p []byte, off int64) error {
	if err := s.Err(); err != nil {
		return err
	}
	for {
		s.mu.RLock() //grovevet:ignore lockorder the read lock spans the positional read so close cannot release the handle mid-read; readers do not wait for each other
		if f := s.f; f != nil {
			_, err := f.ReadAt(p, off)
			s.mu.RUnlock()
			if err != nil {
				err = fmt.Errorf("colstore: page read %s @%d: %w", s.path, off, err)
				s.fail(err)
			}
			return err
		}
		s.mu.RUnlock()
		if err := s.open(); err != nil {
			return err
		}
	}
}

// open opens the file handle unless another reader already has.
func (s *pageSource) open() error {
	s.mu.Lock() //grovevet:ignore lockorder the write lock serializes the lazy open so one handle is opened, once; it is held for that open only
	defer s.mu.Unlock()
	if s.f != nil {
		return nil
	}
	f, err := s.fs.Open(s.path)
	if err != nil {
		err = fmt.Errorf("colstore: page source %s: %w", s.path, err)
		s.fail(err)
		return err
	}
	s.f = f
	return nil
}

// close releases the cached file handle (idempotent).
func (s *pageSource) close() error {
	s.mu.Lock() //grovevet:ignore lockorder close must not race the lazy open or an in-flight positional read on the shared handle; blocking on them is the point
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// --- paged column data -------------------------------------------------------

// pagedData is the lazy half of a MeasureColumn loaded from a v2 snapshot:
// the block index plus the machinery to fault blocks in. values on the
// owning column stays nil until the column is materialized for writing.
type pagedData struct {
	count int
	metas []blockMeta
	src   *pageSource
	token uint64
	pool  *pagepool.Pool
}

func (p *pagedData) numBlocks() int { return len(p.metas) }

// blockScratchPool recycles the buffer a fault reads a block's encoded bytes
// into; each holds the largest payload a block index may claim.
var blockScratchPool = sync.Pool{New: func() any {
	b := make([]byte, maxBlockEncLen)
	return &b
}}

// pageIn returns block bi decoded in a pinned pool frame, consulting the pool
// first; the caller reads frame.Vals and must Unpin the frame. On a miss the
// block is decoded into a frame the pool reserved — in a pool at its budget
// the evicted frame, when its buffer is within twice the block — so a fault
// between blocks of like length allocates nothing. A nil frame means bi is
// out of range or the fault failed; the error is latched on the source.
//
//grove:hotpath
func (p *pagedData) pageIn(bi int) *pagepool.Frame {
	if bi < 0 || bi >= len(p.metas) {
		return nil
	}
	key := pagepool.Key{Col: p.token, Block: uint32(bi)}
	if f := p.pool.Pin(key); f != nil {
		return f
	}
	f := p.pool.Reserve(int(p.metas[bi].count))
	if err := p.readBlock(bi, f.Vals); err != nil {
		p.pool.Abandon(f)
		return nil
	}
	return p.pool.Publish(key, f)
}

// readBlock reads block bi from the snapshot file and decodes it into dst
// (len(dst) = the block's value count), bypassing the pool. An error is also
// latched on the source.
//
//grove:hotpath
func (p *pagedData) readBlock(bi int, dst []float64) error {
	m := &p.metas[bi]
	scratch := blockScratchPool.Get().(*[]byte)
	defer blockScratchPool.Put(scratch)
	buf := (*scratch)[:m.encLen]
	if err := p.src.readAt(buf, m.off); err != nil {
		return err
	}
	if err := decodeBlock(m.enc, buf, dst); err != nil {
		return p.failBlock(bi, err)
	}
	return nil
}

// failBlock latches a decode failure of block bi on the source. Apart from
// readBlock so that the error's formatting stays off the hot path.
func (p *pagedData) failBlock(bi int, err error) error {
	err = fmt.Errorf("colstore: block %d of %s: %w", bi, p.src.path, err)
	p.src.fail(err)
	return err
}

// --- per-column paged accessors ----------------------------------------------

// isPaged reports whether the column's values still live on disk.
func (c *MeasureColumn) isPaged() bool { return c.paged != nil }

// valueCount is Count without assuming residency.
func (c *MeasureColumn) valueCount() int {
	if c.paged != nil {
		return c.paged.count
	}
	return len(c.values)
}

// valueAt reads value index x through the pool, pinning its block for the one
// read. Only for point lookups (Get); kernels use valueReader to amortize the
// block lookup.
func (c *MeasureColumn) valueAt(x int) float64 {
	if c.paged == nil {
		return c.values[x]
	}
	f := c.paged.pageIn(x / BlockValues)
	if f == nil {
		return 0
	}
	v := f.Vals[x%BlockValues]
	c.paged.pool.Unpin(f)
	return v
}

// blockRange returns the value-index window of block bi.
func blockRange(bi, count int) (lo, hi int) {
	lo = bi * BlockValues
	hi = lo + BlockValues
	if hi > count {
		hi = count
	}
	return lo, hi
}

// blockValuesInto decodes block bi into dst, which must hold a block's worth
// of values (resident columns just slice, and ignore dst), bypassing the
// pool: the save path streams every block exactly once, so caching them would
// only evict the query working set.
func (c *MeasureColumn) blockValuesInto(bi int, dst []float64) ([]float64, error) {
	lo, hi := blockRange(bi, c.valueCount())
	if c.paged == nil {
		return c.values[lo:hi], nil
	}
	dst = dst[:hi-lo]
	return dst, c.paged.readBlock(bi, dst)
}

// materialize decodes the whole column, block by block and past the pool,
// into a resident values slice and detaches the paged data. Called (under the
// relation's write lock, so no reader has a block pinned) before any
// mutation: written columns are resident columns.
func (c *MeasureColumn) materialize() error {
	p := c.paged
	if p == nil {
		return nil
	}
	values := make([]float64, p.count)
	for bi := 0; bi < p.numBlocks(); bi++ {
		lo, hi := blockRange(bi, p.count)
		if err := p.readBlock(bi, values[lo:hi]); err != nil {
			return err
		}
	}
	c.values = values
	c.paged = nil
	p.pool.InvalidateColumn(p.token)
	return nil
}

// pageError returns the sticky fault error of the column's source, if any.
func (c *MeasureColumn) pageError() error {
	if c.paged == nil {
		return nil
	}
	return c.paged.src.Err()
}

// ResidentValueBytes reports how many of the column's value bytes are
// resident in memory right now: all of them for an in-memory column, the
// pool-resident blocks' worth for a paged one (pool bytes are reported by
// the pool itself; a paged column's own footprint is just its block index).
func (c *MeasureColumn) ResidentValueBytes() int64 {
	if c.paged != nil {
		return int64(len(c.paged.metas)) * blockMetaDiskSize
	}
	return 8 * int64(len(c.values))
}

// EncodedValueBytes reports the on-disk encoded size of the column's values
// (0 for a purely in-memory column, which has no encoded form yet).
func (c *MeasureColumn) EncodedValueBytes() int64 {
	if c.paged == nil {
		return 0
	}
	var n int64
	for _, m := range c.paged.metas {
		n += int64(m.encLen)
	}
	return n
}

// BlockEncodings counts the column's blocks per encoding tag. All zeros for
// an in-memory column.
func (c *MeasureColumn) BlockEncodings() [numEncodings]int {
	var out [numEncodings]int
	if c.paged == nil {
		return out
	}
	for _, m := range c.paged.metas {
		out[m.enc]++
	}
	return out
}

// --- value reader cursor -----------------------------------------------------

// valueReader is the kernels' cursor over a column's values: a resident
// column is one full-width window, a paged column a sliding per-block window
// over the one pool frame the reader has pinned. The in-window fast path is
// branch-predictable and allocation-free. Whoever inits a reader releases it.
type valueReader struct {
	c      *MeasureColumn
	blk    []float64
	lo, hi int             // value-index window [lo, hi) covered by blk
	pin    *pagepool.Frame // the frame blk lives in; nil for a resident column
}

//grove:hotpath
func (rd *valueReader) init(c *MeasureColumn) {
	rd.c = c
	if c.paged == nil {
		rd.blk = c.values
		rd.lo, rd.hi = 0, len(c.values)
	} else {
		rd.blk, rd.lo, rd.hi = nil, 0, 0
	}
}

// release unpins the reader's block, if it holds one, and empties the window
// over it. A no-op for a resident column.
//
//grove:hotpath
func (rd *valueReader) release() {
	if rd.pin != nil {
		rd.c.paged.pool.Unpin(rd.pin)
		rd.pin, rd.blk, rd.lo, rd.hi = nil, nil, 0, 0
	}
}

// at returns value index x, faulting its block in when the window misses.
//
//grove:hotpath
func (rd *valueReader) at(x int) float64 {
	if x >= rd.lo && x < rd.hi {
		return rd.blk[x-rd.lo]
	}
	return rd.fault(x)
}

// fault moves the window over x's block: the old block is unpinned first, so
// a reader never holds two. On a failed fault (sticky error on the source) it
// returns 0 and leaves the window empty; callers' results are discarded by
// the error check at the end of the operation.
//
//grove:hotpath
func (rd *valueReader) fault(x int) float64 {
	rd.release()
	bi := x / BlockValues
	f := rd.c.paged.pageIn(bi)
	if f == nil {
		return 0
	}
	rd.pin, rd.blk = f, f.Vals
	rd.lo = bi * BlockValues
	rd.hi = rd.lo + len(f.Vals)
	return f.Vals[x-rd.lo]
}

// window returns the contiguous value slice [off, off+n) when it fits inside
// one block window, faulting that block in if needed; nil means the span
// straddles a block boundary (or the fault failed) and the caller must fall
// back to per-value reads.
//
//grove:hotpath
func (rd *valueReader) window(off, n int) []float64 {
	if off >= rd.lo && off+n <= rd.hi {
		return rd.blk[off-rd.lo : off-rd.lo+n]
	}
	if rd.c.paged == nil {
		return nil
	}
	if off/BlockValues != (off+n-1)/BlockValues {
		return nil
	}
	if rd.fault(off); rd.blk == nil {
		return nil
	}
	if off >= rd.lo && off+n <= rd.hi {
		return rd.blk[off-rd.lo : off-rd.lo+n]
	}
	return nil
}

// --- zone-skipping aggregate scan --------------------------------------------

// AggregateSkip folds the column's values for the given strictly ascending
// record ids into a scalar MIN (isMin) or MAX accumulator, skipping whole
// storage blocks whose zone map proves they cannot change the accumulator.
// It returns the folded accumulator, how many values were actually examined
// (the exact MeasuresScanned contribution), and how many blocks were scanned
// vs. skipped. Resident columns have no zone maps and scan every block.
//
// acc is the running accumulator (the aggregate's identity to start). The
// result is bit-identical to folding every present value in record order:
// MIN/MAX folds are order-independent under the MinReplaces/MaxReplaces
// total order, and skipped blocks are proven unable to replace acc.
//
//grove:hotpath
func (c *MeasureColumn) AggregateSkip(recs []uint32, acc float64, isMin bool) (out float64, folded, scanned, skipped int) {
	if len(recs) == 0 || c.valueCount() == 0 {
		return acc, 0, 0, 0
	}
	scratch := rankScratchPool.Get().(*[]int32)
	idx := *scratch
	if cap(idx) < len(recs) {
		idx = make([]int32, len(recs)) //grovevet:ignore hotalloc pooled-scratch grow path; plateaus at the largest answer set
	}
	idx = idx[:len(recs)]
	c.present.RanksInto(recs, idx)
	// Compact to present ranks only; they stay ascending.
	n := 0
	for _, x := range idx {
		if x >= 0 {
			idx[n] = x
			n++
		}
	}
	p := c.paged
	i := 0
	for i < n {
		x := int(idx[i])
		bi := x / BlockValues
		end := int32((bi + 1) * BlockValues)
		j := i + 1
		for j < n && idx[j] < end {
			j++
		}
		if p != nil {
			zm := &p.metas[bi]
			if isMin {
				if !agg.MinReplaces(acc, math.Float64frombits(zm.minBits)) {
					skipped++
					i = j
					continue
				}
			} else {
				if !agg.MaxReplaces(acc, math.Float64frombits(zm.maxBits)) {
					skipped++
					i = j
					continue
				}
			}
			f := p.pageIn(bi)
			if f == nil {
				// Fault failed; sticky error is latched, result discarded.
				i = j
				continue
			}
			vals, lo := f.Vals, bi*BlockValues
			if isMin {
				for k := i; k < j; k++ {
					if v := vals[int(idx[k])-lo]; agg.MinReplaces(acc, v) {
						acc = v
					}
				}
			} else {
				for k := i; k < j; k++ {
					if v := vals[int(idx[k])-lo]; agg.MaxReplaces(acc, v) {
						acc = v
					}
				}
			}
			p.pool.Unpin(f)
		} else {
			if isMin {
				for k := i; k < j; k++ {
					if v := c.values[idx[k]]; agg.MinReplaces(acc, v) {
						acc = v
					}
				}
			} else {
				for k := i; k < j; k++ {
					if v := c.values[idx[k]]; agg.MaxReplaces(acc, v) {
						acc = v
					}
				}
			}
		}
		folded += j - i
		scanned++
		i = j
	}
	*scratch = idx
	rankScratchPool.Put(scratch)
	if skipped > 0 {
		blocksSkipped.Add(int64(skipped))
	}
	return acc, folded, scanned, skipped
}

// --- block encoding ----------------------------------------------------------

// zoneOf computes a block's zone map: the total-order min and max of vals
// under the MinReplaces/MaxReplaces order (-0 sorts before +0).
func zoneOf(vals []float64) (minBits, maxBits uint64) {
	zmin, zmax := vals[0], vals[0]
	for _, v := range vals[1:] {
		if agg.MinReplaces(zmin, v) {
			zmin = v
		}
		if agg.MaxReplaces(zmax, v) {
			zmax = v
		}
	}
	return math.Float64bits(zmin), math.Float64bits(zmax)
}

// blockEncoder holds the reusable scratch of the per-block encoding choice.
type blockEncoder struct {
	buf  []byte           // winning payload
	alt  []byte           // candidate payload
	dict map[uint64]uint8 // value bits → dict index
}

// encode compresses one block of values, returning the chosen encoding tag
// and its payload (valid until the next encode call). The choice prices
// decode: every page fault decodes a whole block, raw decodes at about a
// tenth of the per-value cost of the uvarint encodings, and on measures with
// full mantissas XOR "wins" most blocks by a fraction of a percent. So an
// encoding replaces raw only when its payload is at most 7/8 of the raw one;
// among those that qualify the smallest wins, ties broken in tag order. The
// choice stays a pure function of the block's values, so re-encoding a
// decoded block reproduces identical bytes — Save stays deterministic, which
// the crash-sweep's bit-exactness check relies on.
func (e *blockEncoder) encode(vals []float64) (uint8, []byte, error) {
	for _, v := range vals {
		if math.IsNaN(v) {
			return 0, nil, fmt.Errorf("colstore: NaN measure value")
		}
	}
	e.buf = appendRaw(e.buf[:0], vals)
	best := uint8(encRaw)
	limit := 7*len(e.buf)/8 + 1 // a candidate must come in strictly below
	if alt, ok := e.appendXor(vals, limit); ok {
		e.buf, e.alt = alt, e.buf
		best, limit = encXor, len(alt)
	}
	if alt, ok := e.appendDict(vals, limit); ok {
		e.buf, e.alt = alt, e.buf
		best, limit = encDict, len(alt)
	}
	if alt, ok := e.appendRLE(vals, limit); ok {
		e.buf, e.alt = alt, e.buf
		best = encRLE
	}
	return best, e.buf, nil
}

func appendRaw(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendXor encodes vals as first-value-raw + uvarint XOR deltas, reporting
// success only when strictly smaller than limit.
func (e *blockEncoder) appendXor(vals []float64, limit int) ([]byte, bool) {
	dst := e.alt[:0]
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[0]))
	prev := math.Float64bits(vals[0])
	for _, v := range vals[1:] {
		bits := math.Float64bits(v)
		dst = binary.AppendUvarint(dst, bits^prev)
		prev = bits
		if len(dst) >= limit {
			e.alt = dst
			return nil, false
		}
	}
	e.alt = dst
	return dst, len(dst) < limit
}

// appendDict encodes vals as a ≤256-entry dictionary + one index byte per
// value, reporting success only when the cardinality fits and the result is
// strictly smaller than limit.
func (e *blockEncoder) appendDict(vals []float64, limit int) ([]byte, bool) {
	size := 2 + len(vals) // header + indexes; dict entries added below
	if e.dict == nil {
		e.dict = make(map[uint64]uint8, 256)
	}
	clear(e.dict)
	dst := e.alt[:0]
	dst = append(dst, 0, 0) // dict size, patched below
	var entries [256]uint64
	n := 0
	idxs := make([]uint8, 0, len(vals))
	for _, v := range vals {
		bits := math.Float64bits(v)
		id, ok := e.dict[bits]
		if !ok {
			if n == 256 {
				e.alt = dst
				return nil, false
			}
			id = uint8(n)
			e.dict[bits] = id
			entries[n] = bits
			n++
		}
		idxs = append(idxs, id)
	}
	size += 8 * n
	if size >= limit {
		e.alt = dst
		return nil, false
	}
	binary.LittleEndian.PutUint16(dst[:2], uint16(n))
	for i := 0; i < n; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, entries[i])
	}
	dst = append(dst, idxs...)
	e.alt = dst
	return dst, true
}

// appendRLE encodes vals as (uvarint run length, raw value) runs, reporting
// success only when strictly smaller than limit.
func (e *blockEncoder) appendRLE(vals []float64, limit int) ([]byte, bool) {
	dst := e.alt[:0]
	for i := 0; i < len(vals); {
		bits := math.Float64bits(vals[i])
		j := i + 1
		for j < len(vals) && math.Float64bits(vals[j]) == bits {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = binary.LittleEndian.AppendUint64(dst, bits)
		if len(dst) >= limit {
			e.alt = dst
			return nil, false
		}
		i = j
	}
	e.alt = dst
	return dst, len(dst) < limit
}

// --- block decoding ----------------------------------------------------------

// Decoder failures are sentinel errors, not formatted ones: the decoders are
// //grove:hotpath (the hotalloc lint proves them allocation-free), and
// fmt.Errorf would box its arguments on the success-path's stack frame. The
// callers wrap with the block index, which locates the damage well enough.
var (
	errUnknownEncoding = errors.New("unknown block encoding")
	errRawCorrupt      = errors.New("raw block: payload size mismatch")
	errXorCorrupt      = errors.New("xor block: corrupt payload")
	errDictCorrupt     = errors.New("dict block: corrupt payload")
	errRLECorrupt      = errors.New("rle block: corrupt payload")
)

// decodeBlock decodes one block payload into dst (len(dst) = the block's
// value count). Every branch bounds-checks against the payload before
// reading: the payload is disk input, and a corrupt page must fail cleanly —
// never panic or over-read. Strictness (the payload must be consumed
// exactly) doubles as a save-determinism check.
//
//grove:hotpath
func decodeBlock(enc uint8, payload []byte, dst []float64) error {
	switch enc {
	case encRaw:
		return decodeRaw(payload, dst)
	case encXor:
		return decodeXor(payload, dst)
	case encDict:
		return decodeDict(payload, dst)
	case encRLE:
		return decodeRLE(payload, dst)
	}
	return errUnknownEncoding
}

//grove:hotpath
func decodeRaw(payload []byte, dst []float64) error {
	if len(payload) != 8*len(dst) {
		return errRawCorrupt
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return nil
}

//grove:hotpath
func decodeXor(payload []byte, dst []float64) error {
	if len(dst) == 0 || len(payload) < 8 {
		return errXorCorrupt
	}
	prev := binary.LittleEndian.Uint64(payload)
	dst[0] = math.Float64frombits(prev)
	pos := 8
	for i := 1; i < len(dst); i++ {
		delta, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return errXorCorrupt
		}
		pos += n
		prev ^= delta
		dst[i] = math.Float64frombits(prev)
	}
	if pos != len(payload) {
		return errXorCorrupt
	}
	return nil
}

//grove:hotpath
func decodeDict(payload []byte, dst []float64) error {
	if len(payload) < 2 {
		return errDictCorrupt
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if n < 1 || n > 256 {
		return errDictCorrupt
	}
	if len(payload) != 2+8*n+len(dst) {
		return errDictCorrupt
	}
	var dict [256]float64
	for i := 0; i < n; i++ {
		dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[2+8*i:]))
	}
	idxs := payload[2+8*n:]
	for i := range dst {
		id := int(idxs[i])
		if id >= n {
			return errDictCorrupt
		}
		dst[i] = dict[id]
	}
	return nil
}

//grove:hotpath
func decodeRLE(payload []byte, dst []float64) error {
	pos, out := 0, 0
	for out < len(dst) {
		runLen, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return errRLECorrupt
		}
		pos += n
		if runLen == 0 || runLen > uint64(len(dst)-out) {
			return errRLECorrupt
		}
		if pos+8 > len(payload) {
			return errRLECorrupt
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
		pos += 8
		for i := uint64(0); i < runLen; i++ {
			dst[out] = v
			out++
		}
	}
	if pos != len(payload) {
		return errRLECorrupt
	}
	return nil
}

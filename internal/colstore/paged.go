package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"grove/internal/agg"
	"grove/internal/fsio"
	"grove/internal/pagepool"
)

// Paged measure columns. The v2 snapshot format stores a measure column's
// values as fixed-size blocks of BlockValues values in rank space (value
// index x lives in block x/BlockValues). Each block carries a zone map
// (total-order min/max of its values) and is raw (see rawBlock); the three
// retired encoding tags are refused. Loading a v2 snapshot decodes nothing:
// the loaded values become the column's paged prefix, whose blocks are
// paged in lazily through the relation's pagepool.Pool on first access and
// evicted under memory pressure, so the resident footprint tracks the
// working set and the values appended since the load, not the dataset. A
// reader holds a block only while it has the block's pool frame pinned;
// every kernel in this package unpins before it returns.
//
// Zone-map skipping: MinReplaces/MaxReplaces define a total order on
// non-NaN float64 (with -0 ordered before +0), and a block's zone min is its
// total-order minimum. For a MIN aggregate with running accumulator acc,
// !MinReplaces(acc, zoneMin) implies !MinReplaces(acc, v) for every v in the
// block, and acc only tightens as the fold proceeds — so a skipped block can
// never influence the final accumulator, at any pool size, bit for bit.

// BlockValues is the number of measure values per storage block.
const BlockValues = 4096

// A block fits one pool frame, and a chunk of the pool never straddles two
// blocks, so chunk boundaries fall on the same value indexes in every block.
const (
	_ uint = pagepool.MaxValues - BlockValues
	_ uint = -(BlockValues % pagepool.ChunkValues)
)

// Block encoding tags. Every block is raw; tags 1–3 (xor, dict, rle) were
// written by earlier builds and are refused with ErrRetiredEncoding.
const (
	encRaw         = 0 // 8 bytes per value, little-endian float64 bits
	lastRetiredEnc = 3 // tags 1–3: the retired xor, dict and rle encodings
)

// ErrRetiredEncoding is the load error of a snapshot holding a block in one
// of the retired xor, dict or rle encodings.
var ErrRetiredEncoding = errors.New("retired block encoding")

// blockMeta is the in-memory block index entry: where the block's raw
// payload (8 bytes per value) sits in data.bin, and its zone map.
type blockMeta struct {
	off     int64  // absolute payload offset in data.bin
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

// pagedData is a MeasureColumn's paged prefix, loaded from a v2 snapshot:
// the block index plus the machinery to fault blocks in.
type pagedData struct {
	count int
	metas []blockMeta
	src   *pageSource
	token uint64
	pool  *pagepool.Pool
}

// blockScratch is what a fault reads a block's payload into: the largest
// payload a block index may claim.
type blockScratch [8 * BlockValues]byte

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// pageIn returns block bi in a pinned pool frame, consulting the pool first;
// the caller reads the frame's chunks and must Unpin it. On a miss the block
// is read into a frame the pool reserved — in a pool that has owned its
// budget, chunks an eviction freed — so a fault allocates nothing whatever
// the block's length. A nil frame means bi is out of range or the fault
// failed; the error is latched on the source.
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
	if err := p.readFrame(bi, f); err != nil {
		p.pool.Abandon(f)
		return nil
	}
	return p.pool.Publish(key, f)
}

// readFrame reads block bi from the snapshot file into the chunks of f. An
// error is also latched on the source.
//
//grove:hotpath
func (p *pagedData) readFrame(bi int, f *pagepool.Frame) error {
	s := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(s)
	m := &p.metas[bi]
	payload := s[:8*int(m.count)]
	if err := p.src.readAt(payload, m.off); err != nil {
		return err
	}
	if err := decodeFrame(payload, f); err != nil {
		return p.failBlock(bi, err)
	}
	return nil
}

// readBlock reads block bi from the snapshot file and decodes it into dst
// (len(dst) = the block's value count), bypassing the pool. An error is also
// latched on the source.
//
//grove:hotpath
func (p *pagedData) readBlock(bi int, dst []float64) error {
	s := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(s)
	m := &p.metas[bi]
	payload := s[:8*int(m.count)]
	if err := p.src.readAt(payload, m.off); err != nil {
		return err
	}
	if err := rawInto(payload, dst); err != nil {
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

// --- the two regions ---------------------------------------------------------

// prefixLen is the number of values in the paged prefix.
func (c *MeasureColumn) prefixLen() int {
	if c.prefix == nil {
		return 0
	}
	return c.prefix.count
}

// valueAt reads value index x, pinning its block for the one read when x is
// in the prefix. Only for point lookups (Get); kernels use valueReader to
// amortize the block lookup.
func (c *MeasureColumn) valueAt(x int) float64 {
	p := c.prefix
	if p == nil || x >= p.count {
		return c.tail[x-c.prefixLen()]
	}
	f := p.pageIn(x / BlockValues)
	if f == nil {
		return 0
	}
	v := f.At(x % BlockValues)
	p.pool.Unpin(f)
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

// blockValuesInto returns the values of block bi of the column's tiling,
// reading what lies in the prefix into dst (a block's worth of room) past
// the pool: the save path streams every block exactly once, so caching
// them would only evict the query working set. A block wholly in the tail
// is a slice of it; the block the prefix ends in is joined in dst.
func (c *MeasureColumn) blockValuesInto(bi int, dst []float64) ([]float64, error) {
	lo, hi := blockRange(bi, c.Count())
	n := c.prefixLen()
	if lo >= n {
		return c.tail[lo-n : hi-n], nil
	}
	dst = dst[:hi-lo]
	inPrefix := min(hi, n) - lo
	if err := c.prefix.readBlock(bi, dst[:inPrefix]); err != nil {
		return nil, err
	}
	copy(dst[inPrefix:], c.tail)
	return dst, nil
}

// materialize reads the prefix in, block by block and past the pool, and
// folds it into the tail, leaving the prefix empty. Called (under the
// relation's write lock, so no reader has a block pinned) before a write
// inside the prefix.
func (c *MeasureColumn) materialize() error {
	p := c.prefix
	values := make([]float64, p.count, p.count+len(c.tail))
	for bi := range p.metas {
		lo, hi := blockRange(bi, p.count)
		if err := p.readBlock(bi, values[lo:hi]); err != nil {
			return err
		}
	}
	c.tail = append(values, c.tail...)
	c.prefix = nil
	p.pool.InvalidateColumn(p.token)
	return nil
}

// pageError returns the sticky fault error of the prefix's source, if any.
func (c *MeasureColumn) pageError() error {
	if c.prefix == nil {
		return nil
	}
	return c.prefix.src.Err()
}

// ResidentValueBytes reports how many of the column's value bytes the
// column itself holds in memory: the tail, plus the prefix's block index
// (the prefix's pooled blocks are reported by the pool itself).
func (c *MeasureColumn) ResidentValueBytes() int64 {
	n := 8 * int64(len(c.tail))
	if c.prefix != nil {
		n += int64(len(c.prefix.metas)) * blockMetaDiskSize
	}
	return n
}

// EncodedValueBytes reports the on-disk size of the prefix's raw blocks (0
// for a column never loaded, whose values have no encoded form yet).
func (c *MeasureColumn) EncodedValueBytes() int64 { return 8 * int64(c.prefixLen()) }

// --- value reader cursor -----------------------------------------------------

// valueReader is the kernels' cursor over a column's values: a window that
// is either the whole tail or one chunk of the one prefix block the reader
// has pinned. Moving to another chunk of the same block is an index
// computation, not a pool call; a column with no prefix is one window. The
// in-window fast path is branch-predictable and allocation-free. Whoever
// inits a reader releases it.
type valueReader struct {
	c      *MeasureColumn
	blk    []float64       // the window: the tail, or one chunk of pin
	lo, hi int             // value-index window [lo, hi) covered by blk
	pin    *pagepool.Frame // the prefix frame blk lives in; nil over the tail
	base   int             // value index of pin's first value
}

//grove:hotpath
func (rd *valueReader) init(c *MeasureColumn) {
	rd.c = c
	rd.overTail()
}

// overTail points the window at the tail.
//
//grove:hotpath
func (rd *valueReader) overTail() {
	rd.blk = rd.c.tail
	rd.lo = rd.c.prefixLen()
	rd.hi = rd.lo + len(rd.blk)
}

// release unpins the reader's block, if it holds one, and moves the window
// back over the tail.
//
//grove:hotpath
func (rd *valueReader) release() {
	if rd.pin != nil {
		rd.c.prefix.pool.Unpin(rd.pin)
		rd.pin = nil
		rd.overTail()
	}
}

// at returns value index x, moving the window when it misses.
//
//grove:hotpath
func (rd *valueReader) at(x int) float64 {
	if x >= rd.lo && x < rd.hi {
		return rd.blk[x-rd.lo]
	}
	return rd.fault(x)
}

// fault moves the window over x: over the tail for a tail index, else over
// x's chunk, faulting x's prefix block in first unless the reader already
// has it pinned; the old block is unpinned before, so a reader never holds
// two. On a failed fault (sticky error on the source) it returns 0 with the
// window over the tail; callers' results are discarded by the error check at
// the end of the operation.
//
//grove:hotpath
func (rd *valueReader) fault(x int) float64 {
	p := rd.c.prefix
	if p == nil || x >= p.count {
		rd.release()
		return rd.blk[x-rd.lo]
	}
	if rd.pin == nil || x < rd.base || x-rd.base >= rd.pin.Len() {
		rd.release()
		bi := x / BlockValues
		f := p.pageIn(bi)
		if f == nil {
			return 0
		}
		rd.pin, rd.base = f, bi*BlockValues
	}
	ci := (x - rd.base) / pagepool.ChunkValues
	rd.blk = rd.pin.Chunk(ci)
	rd.lo = rd.base + ci*pagepool.ChunkValues
	rd.hi = rd.lo + len(rd.blk)
	return rd.blk[x-rd.lo]
}

// window returns the contiguous value slice [off, off+n) when it fits inside
// one window, moving the window over it if needed; nil means the span
// straddles a chunk of the prefix or the prefix/tail boundary (or the fault
// failed) and the caller must fall back to per-value reads.
//
//grove:hotpath
func (rd *valueReader) window(off, n int) []float64 {
	if off < rd.lo || off+n > rd.hi {
		switch {
		case off >= rd.c.prefixLen():
			rd.release()
		case off/pagepool.ChunkValues == (off+n-1)/pagepool.ChunkValues:
			rd.fault(off)
		default:
			return nil
		}
		if off < rd.lo || off+n > rd.hi {
			return nil
		}
	}
	return rd.blk[off-rd.lo : off-rd.lo+n]
}

// --- zone-skipping aggregate scan --------------------------------------------

// AggregateSkip folds the column's values for the given strictly ascending
// record ids into a scalar MIN (isMin) or MAX accumulator, skipping whole
// prefix blocks whose zone map proves they cannot change the accumulator.
// It returns the folded accumulator, how many values were actually examined
// (the exact MeasuresScanned contribution), and how many blocks were scanned
// vs. skipped. The tail has no zone maps: its blocks are always scanned, and
// the block the prefix ends in counts once for each region.
//
// acc is the running accumulator (the aggregate's identity to start). The
// result is bit-identical to folding every present value in record order:
// MIN/MAX folds are order-independent under the MinReplaces/MaxReplaces
// total order, and skipped blocks are proven unable to replace acc.
//
//grove:hotpath
func (c *MeasureColumn) AggregateSkip(recs []uint32, acc float64, isMin bool) (out float64, folded, scanned, skipped int) {
	if len(recs) == 0 || c.Count() == 0 {
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
	p, pn := c.prefix, c.prefixLen()
	i := 0
	for i < n {
		x := int(idx[i])
		bi := x / BlockValues
		end := (bi + 1) * BlockValues
		if x < pn {
			end = min(end, pn)
		}
		j := i + 1
		for j < n && int(idx[j]) < end {
			j++
		}
		if x < pn {
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
			lo := bi * BlockValues
			if isMin {
				for k := i; k < j; k++ {
					if v := f.At(int(idx[k]) - lo); agg.MinReplaces(acc, v) {
						acc = v
					}
				}
			} else {
				for k := i; k < j; k++ {
					if v := f.At(int(idx[k]) - lo); agg.MaxReplaces(acc, v) {
						acc = v
					}
				}
			}
			p.pool.Unpin(f)
		} else {
			if isMin {
				for k := i; k < j; k++ {
					if v := c.tail[int(idx[k])-pn]; agg.MinReplaces(acc, v) {
						acc = v
					}
				}
			} else {
				for k := i; k < j; k++ {
					if v := c.tail[int(idx[k])-pn]; agg.MaxReplaces(acc, v) {
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

// rawBlock appends one block of values to dst in the raw encoding: 8
// little-endian bytes per value, a pure function of the values, so saving a
// loaded snapshot reproduces its bytes. A NaN is refused.
func rawBlock(dst []byte, vals []float64) ([]byte, error) {
	for _, v := range vals {
		if math.IsNaN(v) {
			return dst, fmt.Errorf("colstore: NaN measure value")
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// --- block decoding ----------------------------------------------------------

// errRawCorrupt is a sentinel, not a formatted error: the decoders are
// //grove:hotpath (the hotalloc lint proves them allocation-free), and
// fmt.Errorf would box its arguments on the success path's stack frame. The
// callers wrap it with the block index, which locates the damage well enough.
var errRawCorrupt = errors.New("raw block: payload size mismatch")

// decodeFrame lands one raw block payload in the chunks of f, chunk by
// chunk. The payload is disk input: its length must match the frame's exactly.
//
//grove:hotpath
func decodeFrame(payload []byte, f *pagepool.Frame) error {
	if len(payload) != 8*f.Len() {
		return errRawCorrupt
	}
	for i := 0; i < f.NumChunks(); i++ {
		c := f.Chunk(i)
		off := 8 * i * pagepool.ChunkValues
		if err := rawInto(payload[off:off+8*len(c)], c); err != nil {
			return err
		}
	}
	return nil
}

// littleEndian reports whether this host lays a float64 out in memory the
// way the raw encoding stores it.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawInto lands a raw payload in dst: one memmove on a little-endian host,
// decodeRaw's per-value loop on any other.
//
//grove:hotpath
func rawInto(payload []byte, dst []float64) error {
	if !littleEndian {
		return decodeRaw(payload, dst)
	}
	if len(payload) != 8*len(dst) {
		return errRawCorrupt
	}
	copy(float64Bytes(dst), payload)
	return nil
}

// float64Bytes is the memory of vals as bytes: the package's one use of
// unsafe.
//
//grove:hotpath
func float64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// decodeRaw is the portable raw decoder, value by value.
//
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

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"grove/internal/fsio"
	"grove/internal/graph"
)

// ScanResult describes everything a read of a log file learned about it: its
// header, the valid prefix's dictionary and frame counts, and where (and why)
// the prefix ends. It holds no op: Reader hands those out one at a time.
type ScanResult struct {
	Path   string
	Header Header
	// HeaderOK is false when the file exists but its header is missing or
	// corrupt — the log carries no usable identity and is treated as absent
	// (its frames cannot be trusted to extend any particular snapshot).
	HeaderOK bool
	// HeaderErr explains a false HeaderOK.
	HeaderErr string
	// VersionErr is set, wrapping ErrUnsupportedVersion, when the header is
	// intact but of a format version this build does not read. Header then
	// holds the log's identity, so a caller can tell whether the log
	// extends the cut it loaded; no frame is decoded.
	VersionErr error
	// Kinds counts the valid prefix's frames by kind: Kinds[k] frames of
	// kind k.
	Kinds [OpTag + 1]int
	// Dict is the key dictionary the valid prefix declares: Dict[i] is the
	// element a frame's index i names, and a decoded add-record row's
	// Cells[i].Edge holds such an index.
	Dict []graph.EdgeKey
	// NextLSN is one past the last valid frame (== Header.BaseLSN for an
	// empty log).
	NextLSN uint64
	// GoodSize is the byte length of header + valid prefix; FileSize the
	// whole file. FileSize > GoodSize means a torn tail.
	GoodSize, FileSize int64
	// TornReason says what ended the prefix early ("" when the file ends
	// exactly at a frame boundary).
	TornReason string
}

// TornBytes is the length of the unusable tail.
func (r *ScanResult) TornBytes() int64 { return r.FileSize - r.GoodSize }

// NumOps is the number of frames in the valid prefix.
func (r *ScanResult) NumOps() int {
	n := 0
	for _, k := range r.Kinds {
		n += k
	}
	return n
}

// Missing reports that no log file exists at all (a read returns a non-nil
// result for this case so callers can treat absent and corrupt uniformly).
func (r *ScanResult) Missing() bool { return r.FileSize == 0 && !r.HeaderOK && r.HeaderErr == "" }

// Scan reads the log at path to the end of its valid prefix and returns the
// summary, without keeping any op. It returns an error only for
// environmental failures (permission, I/O); a missing file, a corrupt
// header, torn frames — every state a crash can produce — come back as a
// describable ScanResult instead. Scan never mutates the file.
func Scan(fs fsio.FS, path string) (*ScanResult, error) {
	r, err := NewReader(fs, path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for {
		op, err := r.Next()
		if err != nil {
			return nil, err
		}
		if op == nil {
			return r.Result(), nil
		}
	}
}

// readWindow is the size a Reader's window starts at: it holds the largest
// header, and a frame of a steady-state log many times over.
const readWindow = 128 << 10

// Reader streams a log's valid prefix, one frame at a time. It reads the
// file through a window that starts at readWindow bytes (the file's size,
// if smaller) and grows only to hold the largest frame it meets, and
// decodes every frame into one reused Op: the op Next returns, its row and
// the row's node numbers are valid until the next call. It checks the
// header, each frame's CRC, the LSN chain and the dictionary's declaration
// rules, and ends the valid prefix at the first frame that fails.
type Reader struct {
	f    fsio.File
	path string
	res  ScanResult
	x    *decoder
	// win[lo:] holds the bytes read but not yet decoded.
	win []byte
	lo  int
	// left is what remains of the file past the window, as Stat sized it.
	left int64
	// crc is the checksum of the frame Next returned last.
	crc  uint32
	done bool
}

// NewReader opens the log at path and reads its header. Like Scan, it
// returns an error only for an environmental failure: a missing file or a
// bad header is a Reader whose Result says so and whose Next returns nil at
// once. The caller closes the Reader.
func NewReader(fs fsio.FS, path string) (*Reader, error) {
	r := &Reader{path: path, x: newDecoder(), done: true}
	r.res.Path = path
	fi, err := fs.Stat(path)
	if err != nil {
		// Stat errors other than absence surface when Open fails below;
		// keeping the single existence probe here keeps the fault-op count
		// of the replay path small and deterministic.
		return r, nil
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	r.f, r.left, r.res.FileSize = f, fi.Size(), fi.Size()
	r.win = make([]byte, 0, min(fi.Size(), readWindow))
	if err := r.fill(cap(r.win)); err != nil {
		return nil, errors.Join(err, r.Close())
	}
	h, hlen, err := decodeHeader(r.win)
	if err != nil {
		r.res.HeaderErr = err.Error()
		if errors.Is(err, ErrUnsupportedVersion) {
			r.res.Header, r.res.VersionErr = h, err
		}
		return r, nil
	}
	r.res.Header, r.res.HeaderOK = h, true
	r.res.NextLSN, r.res.GoodSize = h.BaseLSN, int64(hlen)
	r.lo, r.done = hlen, false
	return r, nil
}

// Next decodes the next frame of the valid prefix. It returns nil at the end
// of the prefix — a clean end of file or a torn tail, which Result then
// describes — and an error only when a read fails.
func (r *Reader) Next() (*Op, error) {
	if r.done {
		return nil, nil
	}
	if err := r.fill(frameHeadLen); err != nil {
		return nil, err
	}
	if r.lo == len(r.win) {
		r.done = true // the file ends at a frame boundary
		return nil, nil
	}
	// Read the whole frame in when its length is plausible and the file
	// holds it; otherwise decodeFrame names what is wrong with the bytes
	// there are.
	if have := len(r.win) - r.lo; have >= frameHeadLen {
		need := frameHeadLen + int64(binary.LittleEndian.Uint32(r.win[r.lo:]))
		if need <= frameHeadLen+maxFrameLen && need <= int64(have)+r.left {
			if err := r.fill(int(need)); err != nil {
				return nil, err
			}
		}
	}
	op, size, ok, reason := r.x.decodeFrame(r.win[r.lo:], r.res.NextLSN)
	if !ok {
		r.res.TornReason, r.done = reason, true
		return nil, nil
	}
	r.crc = binary.LittleEndian.Uint32(r.win[r.lo+4:])
	r.lo += size
	r.res.NextLSN++
	r.res.GoodSize += int64(size)
	r.res.Kinds[op.Kind]++
	r.res.Dict = r.x.keys
	return op, nil
}

// fill makes at least need bytes past lo available in the window, or every
// byte the file has left if that is fewer.
func (r *Reader) fill(need int) error {
	have := len(r.win) - r.lo
	if have >= need || r.left == 0 {
		return nil
	}
	if need > cap(r.win) {
		w := make([]byte, have, need)
		copy(w, r.win[r.lo:])
		r.win = w
	} else {
		r.win = r.win[:copy(r.win, r.win[r.lo:])]
	}
	r.lo = 0
	room := r.win[have:cap(r.win)]
	if int64(len(room)) > r.left {
		room = room[:r.left]
	}
	n, err := io.ReadAtLeast(r.f, room, min(need-have, len(room)))
	r.win = r.win[:have+n]
	r.left -= int64(n)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		// The file shrank since Stat sized it.
		r.res.FileSize -= r.left
		r.left = 0
	case err != nil:
		return fmt.Errorf("wal: read %s: %w", r.path, err)
	}
	return nil
}

// Result describes the prefix read so far: all of it once Next has returned
// nil. It is the Reader's own and changes with every Next.
func (r *Reader) Result() *ScanResult { return &r.res }

// Nodes numbers the keys of the add-record row Next returned last, one
// number per node name across the whole log: from[i] and to[i] number
// Keys[i].From and Keys[i].To, for graph.Row.CheckNodes. They are valid
// until the next call.
func (r *Reader) Nodes() (from, to []int32) { return r.x.from, r.x.to }

// Checksum is the CRC of the frame Next returned last.
func (r *Reader) Checksum() uint32 { return r.crc }

// Close closes the file. It is safe to call more than once.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

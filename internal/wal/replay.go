package wal

import (
	"errors"
	"fmt"
	"io"

	"grove/internal/fsio"
	"grove/internal/graph"
)

// ScanResult describes everything a scan learned about a log file: its
// header, the decoded valid prefix, and where (and why) the prefix ends.
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
	// Ops is the valid prefix, in LSN order.
	Ops []Op
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

// Missing reports that no log file exists at all (Scan returns a non-nil
// result for this case so callers can treat absent and corrupt uniformly).
func (r *ScanResult) Missing() bool { return r.FileSize == 0 && !r.HeaderOK && r.HeaderErr == "" }

// Scan reads the log at path and decodes its valid prefix. It returns an
// error only for environmental failures (permission, I/O); a missing file,
// a corrupt header, torn frames — every state a crash can produce — come
// back as a describable ScanResult instead. Scan never mutates the file.
func Scan(fs fsio.FS, path string) (*ScanResult, error) {
	res := &ScanResult{Path: path}
	fi, err := fs.Stat(path)
	if err != nil {
		// Stat errors other than absence surface when Open fails below;
		// keeping the single existence probe here keeps the fault-op count
		// of the replay path small and deterministic.
		return res, nil
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	// One buffer of the size Stat reported, filled in place: the log is read
	// once, not grown into. A file that shrank since the Stat reads short.
	b := make([]byte, fi.Size())
	n, err := io.ReadFull(f, b)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	b = b[:n]
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	res.FileSize = int64(len(b))
	h, hlen, err := decodeHeader(b)
	if err != nil {
		res.HeaderErr = err.Error()
		if errors.Is(err, ErrUnsupportedVersion) {
			res.Header, res.VersionErr = h, err
		}
		return res, nil
	}
	res.Header = h
	res.HeaderOK = true
	res.NextLSN = h.BaseLSN
	res.GoodSize = int64(hlen)
	off := hlen
	x := newDecoder()
	for off < len(b) {
		op, size, ok, reason := x.decodeFrame(b[off:], res.NextLSN)
		if !ok {
			res.TornReason = reason
			break
		}
		res.Ops = append(res.Ops, op)
		res.NextLSN++
		off += size
		res.GoodSize = int64(off)
	}
	res.Dict = x.keys
	return res, nil
}

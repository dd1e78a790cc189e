package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"grove/internal/fsio"
)

// Workload event types.
const (
	EventQuery = "query" // one executed query
	EventViews = "views" // a per-view usage snapshot
)

// WorkloadEvent is one line of a recorded workload log. A query event holds
// the statement's text — which parses back to the statement, so replay is
// parse, then execute — with its outcome: duration, error, and a digest of
// the answer so a replay can verify it reproduced identical results. A views
// event snapshots the per-view usage counters, the feed a workload-driven
// view advisor trains on.
type WorkloadEvent struct {
	Type      string `json:"type"`
	Seq       uint64 `json:"seq"`
	UnixNanos int64  `json:"unixNanos"`

	// Query events.
	Text          string `json:"text,omitempty"` // statement text
	DurationNanos int64  `json:"durationNanos,omitempty"`
	Error         string `json:"error,omitempty"`
	Digest        string `json:"digest,omitempty"` // hex FNV-1a of the answer

	// Views events.
	ViewUsage map[string]int64 `json:"viewUsage,omitempty"`
}

// WorkloadRecorder appends workload events to a JSONL log through an fsio.FS.
// The fsio seam has no append operation — a recorder owns its Create handle
// for its whole lifetime, buffering writes and fsyncing on Close. Record
// is safe for concurrent use.
type WorkloadRecorder struct {
	mu  sync.Mutex
	f   fsio.File
	w   *bufio.Writer
	enc *json.Encoder
	seq uint64
}

// NewWorkloadRecorder opens (truncating) a workload log at path.
func NewWorkloadRecorder(fs fsio.FS, path string) (*WorkloadRecorder, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: workload recorder: %w", err)
	}
	w := bufio.NewWriter(f)
	return &WorkloadRecorder{f: f, w: w, enc: json.NewEncoder(w)}, nil
}

// Record stamps ev with the next sequence number and the current time, and
// appends it to the log.
func (r *WorkloadRecorder) Record(ev WorkloadEvent) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return fmt.Errorf("obs: workload recorder closed")
	}
	r.seq++
	ev.Seq = r.seq
	if ev.UnixNanos == 0 {
		ev.UnixNanos = time.Now().UnixNano()
	}
	return r.enc.Encode(ev)
}

// Close flushes, fsyncs and closes the log. The recorder is unusable after.
func (r *WorkloadRecorder) Close() error {
	r.mu.Lock() //grovevet:ignore lockorder final flush+sync+close must exclude concurrent Record appends; the wait is the point
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.w.Flush()
	if serr := r.f.Sync(); err == nil {
		err = serr
	}
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	r.f, r.w, r.enc = nil, nil, nil
	return err
}

// ReadWorkload parses a workload log written by a WorkloadRecorder, in
// recorded order.
func ReadWorkload(fs fsio.FS, path string) ([]WorkloadEvent, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read workload: %w", err)
	}
	defer func() { _ = f.Close() }() //grovevet:ignore droppederr read-only close after full scan
	var out []WorkloadEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev WorkloadEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("obs: workload line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

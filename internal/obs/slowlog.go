package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ShardTiming is one shard's contribution to a scatter-gathered slow query:
// how long the sub-query waited for a goroutine slot and how long it ran.
type ShardTiming struct {
	Shard         int   `json:"shard"`
	QueueNanos    int64 `json:"queueNanos"`
	DurationNanos int64 `json:"durationNanos"`
}

// SlowQuery is one structured slow-query log entry. Entries marshal to JSON
// one per line (JSONL) — the shape /debug/slow and `grovecli slow` serve.
type SlowQuery struct {
	Kind           string  `json:"kind"`
	Query          string  `json:"query,omitempty"`
	Shard          int     `json:"shard"` // emitting shard; ShardCoordinator for merged entries
	StartUnixNanos int64   `json:"startUnixNanos"`
	DurationNanos  int64   `json:"durationNanos"`
	Cancelled      bool    `json:"cancelled,omitempty"`
	Error          string  `json:"error,omitempty"`
	IO             IODelta `json:"io"`

	// Shards carries the per-shard queue-wait/execution breakdown of a
	// coordinator-level entry (nil for single-shard / engine-level entries).
	Shards []ShardTiming `json:"shards,omitempty"`
}

// Duration returns the entry's total wall time.
func (q SlowQuery) Duration() time.Duration { return time.Duration(q.DurationNanos) }

// DefaultSlowLogCapacity is the ring size when none is given.
const DefaultSlowLogCapacity = 128

// SlowLog is a bounded ring of SlowQuery entries over a configurable latency
// threshold. Add is safe for concurrent use; the threshold is an atomic so
// the hot path's "is this slow?" check is one load, and it can be retuned
// while serving.
type SlowLog struct {
	mu    sync.Mutex
	buf   []SlowQuery
	size  int
	next  int
	total atomic.Uint64

	thresholdNanos atomic.Int64
}

// NewSlowLog returns a log holding up to capacity entries (≤ 0 selects
// DefaultSlowLogCapacity) for queries at or above threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = DefaultSlowLogCapacity
	}
	l := &SlowLog{buf: make([]SlowQuery, capacity)}
	l.thresholdNanos.Store(threshold.Nanoseconds())
	return l
}

// Threshold returns the current latency threshold.
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.thresholdNanos.Load())
}

// SetThreshold retunes the latency threshold (0 logs every query).
func (l *SlowLog) SetThreshold(d time.Duration) {
	l.thresholdNanos.Store(d.Nanoseconds())
}

// Add records a slow query, evicting the oldest entry when full. Callers
// check Threshold first; Add itself takes any entry.
func (l *SlowLog) Add(q SlowQuery) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = q
	l.next = (l.next + 1) % len(l.buf)
	if l.size < len(l.buf) {
		l.size++
	}
	l.mu.Unlock()
	l.total.Add(1)
}

// Recent returns the stored entries, newest first.
func (l *SlowLog) Recent() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, l.size)
	for i := 0; i < l.size; i++ {
		out[i] = l.buf[(l.next-1-i+len(l.buf))%len(l.buf)]
	}
	return out
}

// Len returns how many entries are currently stored.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Total returns how many slow queries were ever recorded (including evicted
// entries) — the grove_slow_queries_total reading.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total.Load()
}

// WriteJSONL writes the stored entries to w, newest first, one JSON object
// per line.
func (l *SlowLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, q := range l.Recent() {
		if err := enc.Encode(q); err != nil {
			return err
		}
	}
	return nil
}

package grove

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"grove/internal/bitmap"
	"grove/internal/fsio"
	"grove/internal/obs"
)

// WorkloadEvent is one line of a recorded workload log: a query's statement
// text and its observed outcome, or a per-view usage snapshot.
type WorkloadEvent = obs.WorkloadEvent

// RecordWorkload attaches a workload recorder writing one JSONL event per
// executed query to path (truncating an existing file), and returns the
// function that stops it: stop appends a final per-view usage snapshot, then
// flushes, fsyncs and closes the log, and reports any buffered write error
// of the recording; a second call does nothing. Recording is opt-in: with no
// recorder attached the query path pays one atomic load. An event holds the
// statement text, which parses back to the statement, with its duration, its
// error and an FNV-1a digest of the answer, so a captured workload can be
// re-executed against any store configuration (ReplayWorkload,
// `grovecli -store DIR replay LOG`) and verified to reproduce identical
// results. One recording runs at a time.
func (s *Store) RecordWorkload(path string) (stop func() error, err error) {
	if s.rec.Load() != nil {
		return nil, errRecording
	}
	r, err := obs.NewWorkloadRecorder(fsio.OS(), path)
	if err != nil {
		return nil, err
	}
	if !s.rec.CompareAndSwap(nil, r) {
		_ = r.Close() //grovevet:ignore droppederr racing starter keeps the installed recorder
		return nil, errRecording
	}
	return func() error {
		if !s.rec.CompareAndSwap(r, nil) {
			return nil
		}
		verr := r.Record(obs.WorkloadEvent{Type: obs.EventViews, ViewUsage: s.coord.ViewUsage()})
		cerr := r.Close()
		if verr != nil {
			return verr
		}
		return cerr
	}, nil
}

var errRecording = errors.New("grove: workload recording already active")

// ReadWorkloadLog parses a workload log written by RecordWorkload, in
// recorded order.
func ReadWorkloadLog(path string) ([]WorkloadEvent, error) {
	return obs.ReadWorkload(fsio.OS(), path)
}

// record appends one query event — every query entry point records through
// it: the statement text, how long it took since start, and the error or,
// from digest, the answer's digest. Write errors stay in the buffered writer
// and resurface when the recording stops.
func (s *Store) record(r *obs.WorkloadRecorder, text string, start time.Time, err error, digest func() string) {
	ev := obs.WorkloadEvent{Type: obs.EventQuery, Text: text, DurationNanos: time.Since(start).Nanoseconds()}
	if err != nil {
		ev.Error = err.Error()
	} else {
		ev.Digest = digest()
	}
	_ = r.Record(ev) //grovevet:ignore droppederr buffered write errors resurface when the recording stops
}

// --- digests -----------------------------------------------------------------

// digestBitmap returns the hex FNV-1a digest of a record-id set, in ascending
// id order. Identical answers — and only identical answers, up to hash
// collision — digest identically regardless of shard count.
func digestBitmap(b *bitmap.Bitmap) string {
	h := fnv.New64a()
	if b != nil {
		var buf [4]byte
		b.Each(func(v uint32) bool {
			binary.LittleEndian.PutUint32(buf[:], v)
			_, _ = h.Write(buf[:]) //grovevet:ignore droppederr fnv.Write cannot fail
			return true
		})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// digestResult digests a statement's answer, whichever kind it is.
func digestResult(res *QueryResult) string {
	switch {
	case res.Agg != nil:
		return digestAgg(res.Agg)
	case res.Scalar != nil:
		return digestScalar(res.Scalar)
	default:
		return digestBitmap(res.IDs)
	}
}

// digestAgg digests a path-aggregation answer: the matched record ids plus
// every per-path aggregate value's exact float64 bits (so NaN payloads and
// signed zeros participate — merges must be bit-identical, not just ≈).
func digestAgg(a *AggResult) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range a.RecordIDs {
		binary.LittleEndian.PutUint32(buf[:4], id)
		_, _ = h.Write(buf[:4]) //grovevet:ignore droppederr fnv.Write cannot fail
	}
	for _, vals := range a.Values {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			_, _ = h.Write(buf[:]) //grovevet:ignore droppederr fnv.Write cannot fail
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// digestScalar digests a scalar answer: the structural answer's cardinality
// and the value's exact float64 bits. The block counters are left out — they
// describe how a shard layout scanned, not what it answered.
func digestScalar(r *ScalarAggResult) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(r.Records))
	_, _ = h.Write(buf[:]) //grovevet:ignore droppederr fnv.Write cannot fail
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Value))
	_, _ = h.Write(buf[:]) //grovevet:ignore droppederr fnv.Write cannot fail
	return strconv.FormatUint(h.Sum64(), 16)
}

// --- replay ------------------------------------------------------------------

// ErrNotReplayable marks workload events that are not queries, such as
// view-usage snapshots.
var ErrNotReplayable = errors.New("grove: workload event is not replayable")

// replayEvent re-executes one recorded query event against the store — parse
// its text, execute the statement — and returns the digest of the fresh
// answer (compare with ev.Digest to verify the replay reproduced the
// recorded result).
func (s *Store) replayEvent(ctx context.Context, ev WorkloadEvent) (string, error) {
	if ev.Type != obs.EventQuery {
		return "", ErrNotReplayable
	}
	st, err := Parse(ev.Text)
	if err != nil {
		return "", err
	}
	res, err := s.Execute(ctx, st)
	if err != nil {
		return "", err
	}
	return digestResult(res), nil
}

// ReplayStats summarizes a workload replay.
type ReplayStats struct {
	Queries    int // query events seen
	Replayed   int // re-executed successfully
	Skipped    int // recorded as failed
	Verified   int // replayed with a recorded digest that matched
	Mismatched int // replayed with a recorded digest that did NOT match
}

// ReplayWorkload re-executes the query events of a recorded workload in
// order, verifying each answer's digest against the recorded one. Events
// recorded as failed are skipped. An event whose text does not parse or
// whose statement fails aborts the replay with an error naming the event;
// digest mismatches don't — inspect Mismatched.
func (s *Store) ReplayWorkload(ctx context.Context, events []WorkloadEvent) (ReplayStats, error) {
	var st ReplayStats
	for i, ev := range events {
		if ev.Type != obs.EventQuery {
			continue
		}
		st.Queries++
		if ev.Error != "" {
			st.Skipped++
			continue
		}
		digest, err := s.replayEvent(ctx, ev)
		if err != nil {
			return st, fmt.Errorf("grove: replay event %d (seq %d) %q: %w", i, ev.Seq, ev.Text, err)
		}
		st.Replayed++
		if ev.Digest == "" {
			continue
		}
		if digest == ev.Digest {
			st.Verified++
		} else {
			st.Mismatched++
		}
	}
	return st, nil
}

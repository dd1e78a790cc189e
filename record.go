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
	"grove/internal/gpath"
	"grove/internal/obs"
	"grove/internal/query"
)

// Workload recording re-exports.
type (
	// WorkloadEvent is one line of a recorded workload log: a normalized,
	// replayable query description plus its observed outcome, or a per-view
	// usage snapshot.
	WorkloadEvent = obs.WorkloadEvent
	// RecordedPath is the normalized form of an explicit aggregation path.
	RecordedPath = obs.RecordedPath
)

// StartWorkloadRecording attaches a workload recorder writing one JSONL event
// per executed query to path (truncating an existing file). Recording is
// opt-in: with no recorder attached the query path pays one atomic load.
// Events capture a normalized, replayable form of each query — statement
// text, structural elements, aggregation parameters — together with its
// duration, error, and an FNV-1a digest of the answer, so a captured workload
// can be re-executed against any store configuration (ReplayWorkload,
// `grovecli -store DIR replay LOG`) and verified to reproduce identical
// results.
func (s *Store) StartWorkloadRecording(path string) error {
	if s.rec.Load() != nil {
		return fmt.Errorf("grove: workload recording already active")
	}
	r, err := obs.NewWorkloadRecorder(fsio.OS(), path)
	if err != nil {
		return err
	}
	if !s.rec.CompareAndSwap(nil, r) {
		_ = r.Close() //grovevet:ignore droppederr racing starter keeps the installed recorder
		return fmt.Errorf("grove: workload recording already active")
	}
	return nil
}

// StopWorkloadRecording appends a final per-view usage snapshot, then flushes,
// fsyncs and closes the workload log. No-op when recording is not active.
// Buffered write errors from earlier Record calls resurface here.
func (s *Store) StopWorkloadRecording() error {
	r := s.rec.Swap(nil)
	if r == nil {
		return nil
	}
	verr := r.Record(obs.WorkloadEvent{Type: obs.EventViews, ViewUsage: s.coord.ViewUsage()})
	cerr := r.Close()
	if verr != nil {
		return verr
	}
	return cerr
}

// RecordingActive reports whether a workload recorder is attached.
func (s *Store) RecordingActive() bool { return s.rec.Load() != nil }

// SnapshotViewUsage appends a per-view usage snapshot event to the active
// workload log — the feed a workload-driven view advisor trains on. No-op
// when recording is not active.
func (s *Store) SnapshotViewUsage() error {
	r := s.rec.Load()
	if r == nil {
		return nil
	}
	return r.Record(obs.WorkloadEvent{Type: obs.EventViews, ViewUsage: s.coord.ViewUsage()})
}

// ReadWorkloadLog parses a workload log written by StartWorkloadRecording, in
// recorded order.
func ReadWorkloadLog(path string) ([]WorkloadEvent, error) {
	return obs.ReadWorkload(fsio.OS(), path)
}

// --- event construction ------------------------------------------------------

// edgesOf normalizes a query graph to its element list ([x,x] = node).
func edgesOf(g *Graph) [][2]string {
	elems := g.Elements()
	out := make([][2]string, len(elems))
	for i, e := range elems {
		out[i] = [2]string{e.From, e.To}
	}
	return out
}

func recordedPaths(paths []gpath.Path) []RecordedPath {
	if len(paths) == 0 {
		return nil
	}
	out := make([]RecordedPath, len(paths))
	for i, p := range paths {
		out[i] = RecordedPath{Nodes: p.Nodes, OpenStart: p.OpenStart, OpenEnd: p.OpenEnd}
	}
	return out
}

// record finalizes and appends one query event. Write errors stay in the
// buffered writer and resurface at StopWorkloadRecording.
func (s *Store) record(r *obs.WorkloadRecorder, ev obs.WorkloadEvent, start time.Time, err error) {
	ev.Type = obs.EventQuery
	ev.DurationNanos = time.Since(start).Nanoseconds()
	if err != nil {
		ev.Error = err.Error()
		ev.Digest = ""
	}
	_ = r.Record(ev) //grovevet:ignore droppederr buffered write errors resurface at StopWorkloadRecording
}

func (s *Store) recordMatch(r *obs.WorkloadRecorder, q *query.GraphQuery, start time.Time, res *Result, err error) {
	ev := obs.WorkloadEvent{Kind: obs.KindGraph, Text: q.String(), Edges: edgesOf(q.G)}
	if err == nil {
		ev.Digest = digestBitmap(res.Answer)
	}
	s.record(r, ev, start, err)
}

func (s *Store) recordAgg(r *obs.WorkloadRecorder, q *query.PathAggQuery, start time.Time, res *AggResult, err error) {
	ev := obs.WorkloadEvent{Kind: obs.KindPathAgg, Text: q.String(), Edges: edgesOf(q.G),
		Agg: q.Agg.Name, Measure: q.Measure, Paths: recordedPaths(q.Paths)}
	if err == nil {
		ev.Digest = digestAgg(res)
	}
	s.record(r, ev, start, err)
}

func (s *Store) recordEval(r *obs.WorkloadRecorder, e Expr, start time.Time, ids *Bitmap, err error) {
	// Expressions are recorded for completeness (text, timing, digest) but are
	// not replayable: the rendered form is not part of the text grammar.
	ev := obs.WorkloadEvent{Kind: obs.KindExpr, Text: e.String()}
	if err == nil {
		ev.Digest = digestBitmap(ids)
	}
	s.record(r, ev, start, err)
}

func (s *Store) recordStatement(r *obs.WorkloadRecorder, text string, start time.Time, res *QueryResult, err error) {
	ev := obs.WorkloadEvent{Kind: obs.KindStatement, Text: text, Statement: true}
	if err == nil {
		if res.Agg != nil {
			ev.Digest = digestAgg(res.Agg)
		} else {
			ev.Digest = digestBitmap(res.IDs)
		}
	}
	s.record(r, ev, start, err)
}

// recordGraphBatch appends one graph event per batch slot (the batch is a
// scheduling construct; the workload's replayable unit is the query).
func (s *Store) recordGraphBatch(r *obs.WorkloadRecorder, queries []*query.GraphQuery, start time.Time, results []*Result, errs []error) {
	for i, q := range queries {
		s.recordMatch(r, q, start, results[i], errs[i])
	}
}

func (s *Store) recordAggBatch(r *obs.WorkloadRecorder, queries []*query.PathAggQuery, start time.Time, results []*AggResult, errs []error) {
	for i, q := range queries {
		s.recordAgg(r, q, start, results[i], errs[i])
	}
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

// --- replay ------------------------------------------------------------------

// ErrNotReplayable marks workload events that carry no replayable query form
// (boolean-expression events recorded from the programmatic API, and non-query
// events such as view-usage snapshots).
var ErrNotReplayable = errors.New("grove: workload event is not replayable")

// ReplayEvent re-executes one recorded query event against the store and
// returns the digest of the fresh answer (compare with ev.Digest to verify
// the replay reproduced the recorded result).
func (s *Store) ReplayEvent(ev WorkloadEvent) (string, error) {
	if ev.Type != obs.EventQuery {
		return "", ErrNotReplayable
	}
	if ev.Statement {
		res, err := s.Query(ev.Text)
		if err != nil {
			return "", err
		}
		if res.Agg != nil {
			return digestAgg(res.Agg), nil
		}
		return digestBitmap(res.IDs), nil
	}
	switch ev.Kind {
	case obs.KindGraph:
		res, err := s.Match(graphFromEdges(ev.Edges))
		if err != nil {
			return "", err
		}
		return digestBitmap(res.Answer), nil
	case obs.KindPathAgg:
		f, ok := query.ByName(ev.Agg)
		if !ok {
			return "", fmt.Errorf("grove: replay: unknown aggregate %q", ev.Agg)
		}
		q := query.NewPathAggQueryOn(graphFromEdges(ev.Edges), f, ev.Measure)
		for _, p := range ev.Paths {
			q.Paths = append(q.Paths, gpath.Path{Nodes: p.Nodes, OpenStart: p.OpenStart, OpenEnd: p.OpenEnd})
		}
		res, err := s.aggregateQuery(context.Background(), q)
		if err != nil {
			return "", err
		}
		return digestAgg(res), nil
	default:
		return "", ErrNotReplayable
	}
}

func graphFromEdges(edges [][2]string) *Graph {
	g := NewGraph()
	for _, e := range edges {
		g.AddElement(EdgeKey{From: e[0], To: e[1]})
	}
	return g
}

// ReplayStats summarizes a workload replay.
type ReplayStats struct {
	Queries    int // query events seen
	Replayed   int // re-executed successfully
	Skipped    int // not replayable (expressions, snapshots) or recorded as failed
	Verified   int // replayed with a recorded digest that matched
	Mismatched int // replayed with a recorded digest that did NOT match
}

// ReplayWorkload re-executes a recorded workload in order, verifying each
// replayed answer's digest against the recorded one. Events recorded as
// failed and non-replayable events are skipped. Execution errors abort the
// replay; digest mismatches don't — inspect Mismatched.
func (s *Store) ReplayWorkload(events []WorkloadEvent) (ReplayStats, error) {
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
		digest, err := s.ReplayEvent(ev)
		if errors.Is(err, ErrNotReplayable) {
			st.Skipped++
			continue
		}
		if err != nil {
			return st, fmt.Errorf("grove: replay event %d (seq %d): %w", i, ev.Seq, err)
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

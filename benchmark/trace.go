package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// A span is one timed call the harness made into a layer of grove, from
// outside. The program carries no tracing of its own yet, so the harness
// cannot see inside a call; it gets nesting by re-driving the same input
// through successively lower exported entry points and recording each as a
// child of the one above it. A child is therefore a separate execution, not
// an interval inside its parent, and a span's self time is its duration
// minus its children's durations (for children the program runs
// concurrently — one per shard — minus the slowest, since that one sets the
// parent's time).
type span struct {
	name     spanName
	op       int32 // spans of one operation share it
	parent   int32 // index of the parent span; -1 for an operation's root
	parallel bool  // runs beside its parallel siblings inside the program
	start    int64 // ns since the trace began
	end      int64
}

// spanName indexes spanNames. The text before the first dot is the layer
// (a package of this repo) the span's self time is charged to.
type spanName uint8

const (
	spStoreMatch spanName = iota
	spStoreAggregate
	spStoreBatch
	spCoordQuery
	spEngine
	spRegistryLookup
	spPlanCover
	spAndAll
	spAppendInto
	spMaximalPaths
	spGatherPaged
	spGather
	spKernel
	spStoreAppend
	spCoordAppendWAL
	spCoordAppendViews
	spCoordAppendBare
	spLoadRecord
	spLogAppend
	spLogCommit
	spLoadStore
	spLoadFS
	spSnapshotLoad
	spReplayViews
	spReplayBare
	spScan
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spStoreMatch:       "grove.Store.Match",
	spStoreAggregate:   "grove.Store.Aggregate",
	spStoreBatch:       "grove.Store.ExecuteBatch+AggregateBatch",
	spCoordQuery:       "shard.Coordinator.query",
	spEngine:           "query.Engine.Execute",
	spRegistryLookup:   "graph.Registry.Lookup",
	spPlanCover:        "query.PlanCover",
	spAndAll:           "bitmap.AndAllInto",
	spAppendInto:       "bitmap.AppendInto",
	spMaximalPaths:     "gpath.MaximalPaths",
	spGatherPaged:      "pagepool.GatherInto(paged)",
	spGather:           "colstore.GatherInto",
	spKernel:           "agg.Kernel",
	spStoreAppend:      "grove.Store.Append",
	spCoordAppendWAL:   "shard.Coordinator.Append(wal+views)",
	spCoordAppendViews: "view.Coordinator.Append(views)",
	spCoordAppendBare:  "shard.Coordinator.Append(bare)",
	spLoadRecord:       "graph.LoadRecord",
	spLogAppend:        "wal.Log.Append",
	spLogCommit:        "wal.Log.Commit",
	spLoadStore:        "grove.LoadStore+Close",
	spLoadFS:           "shard.LoadFS+Close",
	spSnapshotLoad:     "colstore.LoadFS(snapshot only)",
	spReplayViews:      "view.ReplayWALFS(views)",
	spReplayBare:       "shard.ReplayWALFS(bare)",
	spScan:             "wal.Scan",
}

func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// opaque marks the lowest entry point the harness can reach on each call
// path. Its self time is work inside the program that no exported function
// of a lower layer reproduces: what unattributed_frac reports.
func (n spanName) opaque() bool {
	return n == spEngine || n == spCoordAppendWAL || n == spLoadFS
}

// maxSpans bounds a traced run's memory and its span file (≈10 MB).
const maxSpans = 250000

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span. The clock is read after the append, so a growing
// slice is never timed; no span is open while another begins, because
// children are re-executions that follow their parent.
func (t *tracer) begin(name spanName, op, parent int, parallel bool) int {
	t.spans = append(t.spans, span{name: name, op: int32(op), parent: int32(parent), parallel: parallel})
	id := len(t.spans) - 1
	t.spans[id].start = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.t0).Nanoseconds() }

func (t *tracer) full() bool { return len(t.spans) >= maxSpans }

// analyse returns every span's self time, and whether it lies on the
// critical path: under a root through non-parallel children and, among
// parallel siblings, the slowest one. Self times on the critical path add up
// to the root spans' durations exactly.
func analyse(spans []span) (self []int64, critical []bool) {
	self = make([]int64, len(spans))
	slowest := make([]int64, len(spans))
	slowestChild := make([]int, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if s.parent < 0 {
			continue
		}
		if !s.parallel {
			self[s.parent] -= d
		} else if d > slowest[s.parent] {
			slowest[s.parent], slowestChild[s.parent] = d, i
		}
	}
	critical = make([]bool, len(spans))
	for i, s := range spans {
		self[i] -= slowest[i]
		switch {
		case s.parent < 0:
			critical[i] = true
		case s.parallel:
			critical[i] = critical[s.parent] && slowestChild[s.parent] == i
		default:
			critical[i] = critical[s.parent]
		}
	}
	return self, critical
}

// spanStats are a finished trace's spans grouped by name, in microseconds.
type spanStats struct {
	spans    []span
	selfNS   []int64
	critical []bool
	dur      [numSpanNames][]float64
	self     [numSpanNames][]float64
}

func (t *tracer) stats() *spanStats {
	st := &spanStats{spans: t.spans}
	st.selfNS, st.critical = analyse(t.spans)
	for i, s := range t.spans {
		st.dur[s.name] = append(st.dur[s.name], float64(s.end-s.start)/1e3)
		st.self[s.name] = append(st.self[s.name], float64(st.selfNS[i])/1e3)
	}
	return st
}

// opSelf sums a name's self times within each operation and returns the
// per-operation totals: the per-call figure when one call makes several
// spans of a kind (one gather per path, one engine call per shard).
// Operations are numbered densely from 0.
func (st *spanStats) opSelf(name spanName) []float64 {
	var out []float64
	for i, s := range st.spans {
		for int(s.op) >= len(out) {
			out = append(out, 0)
		}
		if s.name == name {
			out[s.op] += float64(st.selfNS[i]) / 1e3
		}
	}
	return out
}

// layerShares returns the layers in first-seen order, each layer's
// critical-path self time as a share of the root spans' total (the shares
// add up to 1), and the unattributed share.
func (st *spanStats) layerShares() (layers []string, share map[string]float64, unattributed float64) {
	share = map[string]float64{}
	total, opaque := 0.0, 0.0
	for i, s := range st.spans {
		if s.parent < 0 {
			total += float64(s.end - s.start)
		}
		if !st.critical[i] {
			continue
		}
		l := s.name.layer()
		if _, seen := share[l]; !seen {
			layers = append(layers, l)
		}
		share[l] += float64(st.selfNS[i])
		if s.name.opaque() {
			opaque += float64(st.selfNS[i])
		}
	}
	for l := range share {
		share[l] /= total
	}
	return layers, share, opaque / total
}

// write stores the spans as one JSON document: a name table and one row
// per span, [name, op, parent, parallel, start_ns, end_ns].
func (t *tracer) write(path, workload, stamp string) error {
	doc := struct {
		Workload string     `json:"workload"`
		Env      string     `json:"env"`
		Names    []string   `json:"names"`
		Columns  []string   `json:"columns"`
		Spans    [][6]int64 `json:"spans"`
	}{workload, stamp, spanNames[:], []string{"name", "op", "parent", "parallel", "start_ns", "end_ns"}, make([][6]int64, len(t.spans))}
	for i, s := range t.spans {
		par := int64(0)
		if s.parallel {
			par = 1
		}
		doc.Spans[i] = [6]int64{int64(s.name), int64(s.op), int64(s.parent), par, s.start, s.end}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

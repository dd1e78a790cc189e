package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"grove"
	"grove/internal/agg"
	"grove/internal/bitmap"
	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/query"
	"grove/internal/shard"
	"grove/internal/view"
	"grove/internal/wal"
)

// layerResult is one traced run of one workload.
type layerResult struct {
	def    workloadDef
	stamp  string             // the corpus the run was fed
	values map[string]float64 // per-layer metrics by name; absent reads 0
	tr     *tracer
	stats  *spanStats

	attempted, failed int
	replayMismatches  int                // outside replays that did not reproduce the engine's answer
	obsUS             map[string]float64 // the repo's own spans, µs per query by phase
	queries           int                // unit operations the traced window drove
}

// --- read workloads -------------------------------------------------------------

// twin is the coordinator the traced run builds beside the facade store
// from the same records: a grove.Store does not expose its own.
type twin struct {
	coord    *shard.Coordinator
	resident *shard.Coordinator // the same records unpaged; nil unless coord is paged
	fs       *countingFS        // what coord was saved and loaded through; nil unless paged
}

func (t *twin) close() error {
	err := t.coord.Close()
	if t.resident != nil {
		if rerr := t.resident.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// newTwin mirrors the set-up of def on a bare coordinator, filling the view
// and space metrics it can time on the way.
func newTwin(c *corpus, def workloadDef, dir string, values map[string]float64) (*twin, error) {
	shards := 1
	if def.Name == "batch-sharded" {
		shards = batchShards
	}
	co := shard.New(shards, 0)
	for _, rec := range c.records {
		co.Add(rec)
	}
	co.Optimize()
	switch def.Name {
	case "agg-zipf-views":
		sample := c.sample
		adv := &view.Advisor{Rel: co.Unit(0).Rel, Reg: co.Registry()}
		start := time.Now()
		if _, err := adv.SelectGraphViews(sample, viewsK); err != nil {
			return nil, err
		}
		if _, err := adv.SelectAggViews(sample, viewsK); err != nil {
			return nil, err
		}
		selectS := time.Since(start).Seconds()
		start = time.Now()
		if err := materializeTwinViews(co, c.sample); err != nil {
			return nil, err
		}
		values["view.select_s"] = selectS
		values["view.materialize_s"] = math.Max(0, time.Since(start).Seconds()-selectS)
		values["view.space_ratio"] = float64(co.ViewSizeBytes()) / float64(co.BaseSizeBytes())
	case "agg-paged-1pct":
		fs := newCountingFS(fsio.OS())
		if err := co.SaveFS(fs, dir); err != nil {
			return nil, err
		}
		paged, err := shard.LoadFS(fs, dir)
		if err != nil {
			return nil, err
		}
		paged.SetPageCacheBytes(paged.StorageStats().LogicalBytes / 100)
		return &twin{coord: paged, resident: co, fs: fs}, nil
	}
	return &twin{coord: co}, nil
}

func materializeTwinViews(co *shard.Coordinator, sample []*grove.Graph) error {
	if _, err := co.MaterializeGraphViews(sample, viewsK, 0); err != nil {
		return err
	}
	_, err := co.MaterializeAggViews(sample, query.Sum, viewsK, 0)
	return err
}

// queryTrace drives the traced window of a read workload.
type queryTrace struct {
	cfg runConfig
	in  *instance
	tw  *twin
	tr  *tracer
	lr  *layerResult

	root     spanName // the facade call the workload makes
	calls    []tracedCall
	aggViews map[*colstore.Relation][]*colstore.AggregateView // longest path first, as the engine covers

	// per-window sums behind the count metrics
	bitmaps, saved, viewPlans, plans int
	bitmapBytes                      int64
	fsReads                          fsCounts

	// scratch reused across replays
	bms     []*bitmap.Bitmap
	ids     []uint32
	vals    []float64
	null    []bool
	vslab   []float64
	pslab   []bool
	scratch []float64
	scrPres []bool
}

// edgeIDs resolves a query graph's elements the way the engine does:
// unknown elements get a sentinel id whose column is empty.
func edgeIDs(reg *graph.Registry, keys []graph.EdgeKey) []colstore.EdgeID {
	out := make([]colstore.EdgeID, 0, len(keys))
	seen := make(map[colstore.EdgeID]struct{}, len(keys))
	for _, k := range keys {
		id, ok := reg.Lookup(k)
		if !ok {
			id = colstore.EdgeID(uint32(reg.Len()) + uint32(len(out)) + 1<<24)
		}
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out
}

// tracedCall is call i of a pass, prepared once: the facade's inputs and
// the query objects the layers under it take.
type tracedCall struct {
	parts []part
	gqs   [][]*query.GraphQuery
	aqs   [][]*query.PathAggQuery
}

// answerDigest fingerprints an aggregate answer: its record ids, then the
// exact bits of every per-path value. The replay folds in the engine's
// order, so it must reproduce the engine's digest, not merely come close.
type answerDigest struct{ h hash.Hash64 }

func newAnswerDigest(ids []uint32) answerDigest {
	d := answerDigest{fnv.New64a()}
	var buf [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(buf[:], id)
		d.h.Write(buf[:])
	}
	return d
}

func (d answerDigest) add(path []float64) {
	var buf [8]byte
	for _, v := range path {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.h.Write(buf[:])
	}
}

func digestValues(ids []uint32, values [][]float64) uint64 {
	d := newAnswerDigest(ids)
	for _, path := range values {
		d.add(path)
	}
	return d.h.Sum64()
}

func (q *queryTrace) prepare() {
	q.root = spStoreBatch
	if first := q.in.parts(0); q.in.units == q.in.calls { // one query per call: Match or Aggregate, not the batch API
		q.root = spStoreMatch
		if first[0].isAgg {
			q.root = spStoreAggregate
		}
	}
	q.calls = make([]tracedCall, q.in.calls)
	for i := range q.calls {
		c := &q.calls[i]
		c.parts = q.in.parts(i)
		c.gqs = make([][]*query.GraphQuery, len(c.parts))
		c.aqs = make([][]*query.PathAggQuery, len(c.parts))
		for pi, p := range c.parts {
			for _, g := range p.graphs {
				if p.isAgg {
					c.aqs[pi] = append(c.aqs[pi], query.NewPathAggQuery(g, query.Sum))
				} else {
					c.gqs[pi] = append(c.gqs[pi], query.NewGraphQuery(g))
				}
			}
		}
	}
}

// pass traces one pass over the pool, operations base … base+calls−1.
// Each layer gets its own sweep over the whole pool — facade, then the
// twin's coordinator, then each shard's engine, then the exported work
// functions under it — so every call of every layer meets the caches as the
// untraced loop leaves them: cold from the thousands of queries in between.
// Re-driving one query through all layers back to back would hand the lower
// layers warm bitmaps and charge the misses to the facade.
func (q *queryTrace) pass(base int) {
	ctx := context.Background()
	tr, co := q.tr, q.tw.coord
	single := q.root != spStoreBatch
	roots, coords, engines := make([]int, len(q.calls)), make([]int, len(q.calls)), make([]int, len(q.calls))

	runtime.GC() // every sweep starts from a collected heap, like every other
	for i, c := range q.calls {
		roots[i] = tr.begin(q.root, base+i, -1, false)
		err := q.in.do(i)
		tr.end(roots[i])
		q.lr.attempted++
		if err != nil {
			q.lr.failed++
		}
		for _, p := range c.parts {
			q.lr.queries += len(p.graphs)
		}
	}

	var fsBefore fsCounts
	if q.tw.fs != nil {
		fsBefore = q.tw.fs.counts()
	}
	runtime.GC()
	for i, c := range q.calls {
		coords[i] = tr.begin(spCoordQuery, base+i, roots[i], false)
		for pi, p := range c.parts {
			var err error
			switch {
			case single && p.isAgg:
				_, err = co.AggregateContext(ctx, c.aqs[pi][0])
			case single:
				_, err = co.MatchContext(ctx, c.gqs[pi][0])
			case p.isAgg:
				_, errs := co.ExecutePathAggBatchContext(ctx, c.aqs[pi], q.cfg.workers)
				err = firstError(errs)
			default:
				_, errs := co.ExecuteGraphBatchContext(ctx, c.gqs[pi], q.cfg.workers)
				err = firstError(errs)
			}
			if err != nil {
				q.lr.failed++
			}
		}
		tr.end(coords[i])
	}
	if q.tw.fs != nil {
		d := q.tw.fs.counts().sub(fsBefore)
		q.fsReads.Reads += d.Reads
		q.fsReads.ReadBytes += d.ReadBytes
	}

	for _, c := range q.calls {
		for _, p := range c.parts {
			for _, g := range p.graphs {
				ex, err := co.Unit(0).Eng.Explain(query.NewGraphQuery(g))
				if err != nil {
					q.lr.failed++
					continue
				}
				q.plans++
				q.bitmaps += ex.BitmapsFetched
				q.saved += ex.BitmapsSaved
				if len(ex.Views)+len(ex.AggViews) > 0 {
					q.viewPlans++
				}
			}
		}
	}

	// What each engine call answered, for the replay sweep to check itself
	// against: a cardinality or a digest per query. Keeping the answers
	// themselves would grow the live heap by the whole pool's results and
	// slow this sweep relative to the coordinator's.
	got := make([][][]uint64, len(q.calls))
	for ui := 0; ui < co.NumShards(); ui++ {
		u := co.Unit(ui)
		runtime.GC()
		for i, c := range q.calls {
			got[i] = make([][]uint64, len(c.parts))
			for pi, p := range c.parts {
				got[i][pi] = make([]uint64, len(p.graphs))
			}
			var lastAgg *query.AggResult
			engines[i] = tr.begin(spEngine, base+i, coords[i], true)
			for pi, p := range c.parts {
				for j := range p.graphs {
					if p.isAgg {
						res, err := u.Eng.ExecutePathAggQueryContext(ctx, c.aqs[pi][j])
						if err != nil {
							q.lr.failed++
							continue
						}
						lastAgg = res
					} else if res, err := u.Eng.ExecuteGraphQueryContext(ctx, c.gqs[pi][j]); err != nil {
						q.lr.failed++
					} else {
						got[i][pi][j] = uint64(res.NumRecords())
					}
				}
			}
			tr.end(engines[i])
			if single && lastAgg != nil {
				got[i][0][0] = digestValues(lastAgg.RecordIDs, lastAgg.Values)
			}
		}
		var resident *colstore.Relation
		if q.tw.resident != nil {
			resident = q.tw.resident.Unit(ui).Rel
		}
		runtime.GC()
		for i, c := range q.calls {
			for pi, p := range c.parts {
				for j, g := range p.graphs {
					q.replay(base+i, engines[i], u.Rel, resident, co.Registry(), g, p.isAgg, single, got[i][pi][j])
				}
			}
		}
	}
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replay re-does one engine execution from outside, one span per exported
// work function, and verifies that it produced the engine's answer: want is
// the answer's cardinality, or with checkAgg the digest of its aggregates.
// (A batch call's aggregates go unchecked: its engine span covers 128
// queries and digesting each answer inside it would be timed as engine work.)
func (q *queryTrace) replay(op, parent int, rel, resident *colstore.Relation, reg *graph.Registry, g *grove.Graph, isAgg, checkAgg bool, want uint64) {
	tr := q.tr
	s := tr.begin(spRegistryLookup, op, parent, false)
	universe := edgeIDs(reg, g.Elements())
	tr.end(s)

	rel.BeginRead() //grovevet:ignore lockorder the replay holds the read lock across paged gathers exactly as the engine it re-does holds it: block faults under the lock are the design
	defer rel.EndRead()
	s = tr.begin(spPlanCover, op, parent, false)
	plan := query.PlanCover(rel, universe)
	tr.end(s)

	s = tr.begin(spAndAll, op, parent, false)
	bms := q.bms[:0]
	for _, name := range plan.Views {
		bms = append(bms, rel.View(name).Col.Bits())
	}
	for _, name := range plan.AggViews {
		bms = append(bms, rel.AggView(name).Col.Bits())
	}
	for _, id := range plan.Edges {
		b := rel.EdgeBitmap(id)
		if b == nil {
			b = bitmap.New()
		}
		bms = append(bms, b)
	}
	answer := bitmap.AndAllInto(bitmap.New(), bms...)
	tr.end(s)
	for _, b := range bms {
		q.bitmapBytes += int64(b.SizeBytes())
	}
	q.bms = bms[:0]

	if !isAgg {
		if uint64(answer.Cardinality()) != want {
			q.lr.replayMismatches++
		}
		return
	}

	s = tr.begin(spAppendInto, op, parent, false)
	ids := answer.AppendInto(q.ids[:0])
	tr.end(s)
	q.ids = ids
	s = tr.begin(spMaximalPaths, op, parent, false)
	paths, err := gpath.MaximalPaths(g)
	tr.end(s)
	if err != nil {
		q.lr.replayMismatches++
		return
	}

	n := len(ids)
	kernel := agg.KernelFor(agg.Sum)
	digest := newAnswerDigest(ids)
	for _, p := range paths {
		segs := q.cover(rel, edgeIDsInOrder(reg, p))
		if need := len(segs) * n; cap(q.vslab) < need {
			q.vslab, q.pslab = make([]float64, need), make([]bool, need)
		}
		if cap(q.vals) < n {
			q.vals, q.null = make([]float64, n), make([]bool, n)
			q.scratch, q.scrPres = make([]float64, n), make([]bool, n)
		}
		counts := make([]int, len(segs))

		gname := spGather
		if resident != nil {
			gname = spGatherPaged
		}
		s = tr.begin(gname, op, parent, false)
		for si, sg := range segs {
			if sg.col != nil {
				counts[si] = sg.col.GatherInto(ids, q.vslab[si*n:(si+1)*n], q.pslab[si*n:(si+1)*n])
			}
		}
		tr.end(s)
		if resident != nil {
			// The same ids through the unpaged columns: what the gather
			// costs once its blocks are decoded and resident.
			r := tr.begin(spGather, op, s, false)
			for _, sg := range segs {
				if col := resident.MeasureColumn(sg.edge); col != nil {
					col.GatherInto(ids, q.scratch[:n], q.scrPres[:n])
				}
			}
			tr.end(r)
		}

		s = tr.begin(spKernel, op, parent, false)
		vals, null := q.vals[:n], q.null[:n]
		for i := range vals {
			vals[i], null[i] = agg.Sum.Identity, false
		}
		nulls := 0
		for si, sg := range segs {
			v, pr := q.vslab[si*n:(si+1)*n], q.pslab[si*n:(si+1)*n]
			fold := kernel.Raw
			if sg.stored {
				fold = kernel.Stored
			}
			switch {
			case sg.col == nil:
				for i := range null {
					if !null[i] {
						null[i] = true
						nulls++
					}
				}
			case nulls == 0 && counts[si] == n:
				fold(vals, v, nil, nil)
			default:
				_, nn := fold(vals, v, pr, null)
				nulls += nn
			}
		}
		if nulls > 0 {
			for i, isNull := range null {
				if isNull {
					vals[i] = math.NaN()
				}
			}
		}
		tr.end(s)

		digest.add(vals)
	}
	if checkAgg && digest.h.Sum64() != want {
		q.lr.replayMismatches++
	}
}

// edgeIDsInOrder resolves a path's edges in traversal order; an edge the
// registry has never seen gets an id no column exists for.
func edgeIDsInOrder(reg *graph.Registry, p gpath.Path) []colstore.EdgeID {
	keys := p.Edges()
	out := make([]colstore.EdgeID, len(keys))
	for i, k := range keys {
		id, ok := reg.Lookup(k)
		if !ok {
			id = colstore.EdgeID(uint32(reg.Len()) + uint32(i) + 1<<24)
		}
		out[i] = id
	}
	return out
}

// pathSeg is one operand of a path fold: a raw edge column, or a stored
// partial aggregate covering several edges.
type pathSeg struct {
	col    *colstore.MeasureColumn
	edge   colstore.EdgeID
	stored bool
}

// cover splits a path into the longest matching SUM aggregate views and
// raw edges, as the engine's measure-side rewriting does (§5.1.2). replay
// checks the fold it feeds against the engine's own answer, so a divergence
// from the engine's cover shows as a replay mismatch.
func (q *queryTrace) cover(rel *colstore.Relation, path []colstore.EdgeID) []pathSeg {
	views, ok := q.aggViews[rel]
	if !ok {
		for _, v := range rel.AggViews() {
			if v.Func == agg.Sum.Name && v.MeasureName == "" {
				views = append(views, v)
			}
		}
		sort.Slice(views, func(i, j int) bool {
			if len(views[i].Path) != len(views[j].Path) {
				return len(views[i].Path) > len(views[j].Path)
			}
			return views[i].Name < views[j].Name
		})
		q.aggViews[rel] = views
	}
	var out []pathSeg
	for i := 0; i < len(path); {
		matched := false
		for _, v := range views {
			if i+len(v.Path) > len(path) {
				continue
			}
			same := true
			for j, e := range v.Path {
				if path[i+j] != e {
					same = false
					break
				}
			}
			if same {
				out = append(out, pathSeg{col: v.Measure, stored: true})
				i += len(v.Path)
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, pathSeg{col: rel.MeasureColumn(path[i]), edge: path[i]})
			i++
		}
	}
	return out
}

// obsPhases drives one pass with the repo's own tracing on and returns its
// span time per query by phase, for the side-by-side with the harness's.
func obsPhases(in *instance) map[string]float64 {
	in.st.EnableTracing(1 << 16)
	for i := 0; i < in.calls; i++ {
		in.do(i) // errors were counted by the traced window; this pass only feeds the repo's ring
	}
	traces := in.st.RecentTraces()
	in.st.DisableTracing()
	out := map[string]float64{}
	var walk func(t grove.Trace)
	walk = func(t grove.Trace) {
		for _, s := range t.Spans {
			out[s.Phase] += float64(s.DurationNanos) / 1e3
		}
		for _, child := range t.Children {
			walk(child)
		}
	}
	for _, t := range traces {
		walk(t)
	}
	for phase := range out {
		out[phase] /= float64(in.units)
	}
	return out
}

// traceQuery is the traced run of a read workload.
func traceQuery(cfg runConfig, c *corpus, def workloadDef) (*layerResult, error) {
	lr := &layerResult{def: def, values: map[string]float64{}}
	o := newOracle(c.records, def.tol)
	dir := filepath.Join(cfg.outDir, def.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	in, err := def.setup(c, o, dir, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.st.Close()
	tw, err := newTwin(c, def, dir+".twin", lr.values)
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	defer tw.close()
	c.keepRecords(0)

	// Untraced reference for trace_overhead_frac: warm-up, then a quarter window.
	(&result{}).pass(in)
	ref := &result{}
	for d := 0.0; d < cfg.seconds/4; {
		d += ref.pass(in).Seconds()
	}

	q := &queryTrace{cfg: cfg, in: in, tw: tw, tr: newTracer(), lr: lr, aggViews: map[*colstore.Relation][]*colstore.AggregateView{}}
	lr.tr = q.tr
	q.prepare()
	before := snapshot(in.st)
	start := time.Now()
	for base := 0; base == 0 || (!q.tr.full() && time.Since(start).Seconds() < cfg.seconds); base += in.calls {
		q.pass(base)
	}
	delta := counterDelta(snapshot(in.st), before)
	lr.failed += lr.replayMismatches

	st := q.tr.stats()
	lr.stats = st
	v := lr.values
	n := float64(lr.queries)
	perCall := float64(in.units) / float64(in.calls) // queries per call
	v["grove.facade_us"] = median(st.self[q.root])
	v["shard.scatter_overhead_us"] = median(st.self[spCoordQuery])
	v["shard.scatter_ratio"] = sum(st.dur[spCoordQuery]) / sum(st.dur[spEngine])
	v["query.plan_us"] = median(st.opSelf(spPlanCover)) / perCall
	v["query.engine_self_us"] = median(st.opSelf(spEngine)) / perCall
	v["query.bitmaps_per_query"] = float64(q.bitmaps) / float64(q.plans)
	v["bitmap.and_us"] = median(st.opSelf(spAndAll)) / perCall
	v["bitmap.bytes_per_query"] = float64(q.bitmapBytes) / n
	v["colstore.gather_us"] = median(st.opSelf(spGather)) / perCall
	v["colstore.block_decode_us"] = median(st.opSelf(spGatherPaged)) / perCall
	v["agg.fold_us"] = median(st.opSelf(spKernel)) / perCall
	v["view.hit_ratio"] = float64(q.viewPlans) / float64(q.plans)
	v["view.bitmaps_saved_per_query"] = float64(q.saved) / float64(q.plans)
	v["colstore.measures_per_query"] = float64(counterValue(delta, "io.measures_scanned")) / n
	v["colstore.partition_joins_per_query"] = float64(counterValue(delta, "io.partition_joins")) / n
	hits, misses := counterValue(delta, "pool.hits"), counterValue(delta, "pool.misses")
	v["pagepool.faults_per_query"] = float64(misses) / n
	v["pagepool.evictions"] = float64(counterValue(delta, "pool.evictions"))
	if hits+misses > 0 {
		v["pagepool.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["fsio.reads"] = float64(q.fsReads.Reads)
	v["fsio.read_bytes"] = float64(q.fsReads.ReadBytes)
	v["trace_overhead_frac"] = median(st.dur[q.root])/median(ref.latUS) - 1

	lr.obsUS = obsPhases(in)
	if err := os.RemoveAll(dir + ".twin"); err != nil {
		return nil, err
	}
	return lr, os.RemoveAll(dir)
}

func counterValue(cs []counter, name string) int64 {
	for _, ct := range cs {
		if ct.Name == name {
			return ct.Value
		}
	}
	return 0
}

// --- ingest-wal -----------------------------------------------------------------

// newWriteTwin mirrors openWALStore on a bare coordinator: the boot records,
// optionally the views, and optionally a log written through fs under dir.
func newWriteTwin(c *corpus, views bool, fs fsio.FS, dir string) (*shard.Coordinator, error) {
	co := shard.New(walShards, 0)
	if fs != nil {
		if err := co.AttachWALFS(fs, dir, wal.Config{Policy: wal.SyncInterval}); err != nil {
			return nil, err
		}
	}
	for _, rec := range c.records[:c.ingestBoot] {
		if _, err := co.Append(rec); err != nil {
			return nil, err
		}
	}
	if views {
		if err := materializeTwinViews(co, c.walSample); err != nil {
			return nil, err
		}
	}
	if fs != nil {
		return co, co.Checkpoint()
	}
	return co, nil
}

// traceIngest is the traced run of ingest-wal: one untraced round for the
// reference latency, then one round where every record goes through the
// facade store and, as children, through successively barer twins and a
// stand-alone log.
func traceIngest(cfg runConfig, c *corpus, def workloadDef) (*layerResult, error) {
	lr := &layerResult{def: def, values: map[string]float64{}}
	n0, n1 := c.ingestBoot, c.ingestBoot+c.ingest
	c.keepRecords(n1)
	recs := c.records[n0:n1]
	o := newOracle(c.records, def.tol)
	dir := filepath.Join(cfg.outDir, def.Name)
	for _, d := range []string{dir, dir + ".twin", dir + ".log"} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}

	ref, err := openWALStore(dir, c, true)
	if err != nil {
		return nil, err
	}
	var refUS []float64
	runtime.GC()
	for _, rec := range recs {
		t := time.Now()
		if _, err := ref.Append(rec); err != nil {
			lr.failed++
		}
		refUS = append(refUS, float64(time.Since(t).Nanoseconds())/1e3)
	}
	if err := ref.Close(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}

	st, err := openWALStore(dir, c, true)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	fs := newCountingFS(fsio.OS())
	withWAL, err := newWriteTwin(c, true, fs, dir+".twin")
	if err != nil {
		return nil, err
	}
	defer withWAL.Close()
	withViews, err := newWriteTwin(c, true, nil, "")
	if err != nil {
		return nil, err
	}
	bare, err := newWriteTwin(c, false, nil, "")
	if err != nil {
		return nil, err
	}
	rel, reg := colstore.NewRelation(0), graph.NewRegistry()
	for _, rec := range c.records[:n0] {
		graph.LoadRecord(rel, reg, rec)
	}
	if err := os.MkdirAll(dir+".log", 0o755); err != nil {
		return nil, err
	}
	log, err := wal.Create(fsio.OS(), filepath.Join(dir+".log", wal.FileName), 0, "", 1, wal.Config{Policy: wal.SyncInterval})
	if err != nil {
		return nil, err
	}
	defer log.Close()

	tr := newTracer()
	lr.tr = tr
	walBefore, fsBefore, logBefore := st.WALStats(), fs.counts(), log.Stats()
	// One sweep over the records per layer, as in the read workloads: each
	// target ingests the whole stream on its own, so none of them runs in
	// the cache shadow of the five others.
	sweep := func(name spanName, parents []int, ingest func(rec *grove.Record) error) []int {
		ids := make([]int, len(recs))
		runtime.GC()
		for op, rec := range recs {
			parent := -1
			if parents != nil {
				parent = parents[op]
			}
			ids[op] = tr.begin(name, op, parent, false)
			err := ingest(rec)
			tr.end(ids[op])
			if err != nil {
				lr.failed++
			}
		}
		return ids
	}
	roots := sweep(spStoreAppend, nil, func(rec *grove.Record) error {
		lr.attempted++
		_, err := st.Append(rec)
		return err
	})
	logged := sweep(spCoordAppendWAL, roots, func(rec *grove.Record) error {
		_, err := withWAL.Append(rec)
		return err
	})
	viewed := sweep(spCoordAppendViews, logged, func(rec *grove.Record) error {
		_, err := withViews.Append(rec)
		return err
	})
	plain := sweep(spCoordAppendBare, viewed, func(rec *grove.Record) error {
		_, err := bare.Append(rec)
		return err
	})
	sweep(spLoadRecord, plain, func(rec *grove.Record) error {
		graph.LoadRecord(rel, reg, rec)
		return nil
	})
	// The stand-alone log appends and commits each record back to back, as
	// the coordinator does: under fsync=interval the commit's cost depends
	// on how long ago the last one synced.
	runtime.GC()
	for op, rec := range recs {
		a := tr.begin(spLogAppend, op, logged[op], false)
		lsn, err := log.Append(wal.Op{Kind: wal.OpAddRecord, Record: rec})
		tr.end(a)
		cm := tr.begin(spLogCommit, op, logged[op], false)
		if err == nil {
			err = log.Commit(lsn)
		}
		tr.end(cm)
		if err != nil {
			lr.failed++
		}
	}
	syncStart := time.Now()
	if err := log.Sync(); err != nil {
		lr.failed++
	}
	syncUS := float64(time.Since(syncStart).Nanoseconds()) / 1e3
	if err := st.SyncWAL(); err != nil {
		lr.failed++
	}
	if err := withWAL.SyncWAL(); err != nil {
		lr.failed++
	}
	walAfter := st.WALStats()
	lr.queries = len(recs)

	attempted, failed, err := o.probe(st, n1, c.aggPool)
	if err != nil {
		return nil, err
	}
	lr.attempted += attempted
	lr.failed += failed
	if withWAL.NumRecords() != n1 || bare.NumRecords() != n1 || rel.NumRecords() != n1 {
		lr.replayMismatches++
		lr.failed++
	}

	start := time.Now()
	if err := st.Save(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	checkpointS := time.Since(start).Seconds()
	if err := withWAL.Checkpoint(); err != nil {
		return nil, fmt.Errorf("twin checkpoint: %w", err)
	}
	io := fs.counts().sub(fsBefore)

	stt := tr.stats()
	lr.stats = stt
	v := lr.values
	v["grove.facade_us"] = median(stt.self[spStoreAppend])
	v["view.maintain_us_per_record"] = median(stt.self[spCoordAppendViews])
	v["graph.load_us_per_record"] = median(stt.dur[spLoadRecord])
	v["wal.append_us"] = median(stt.dur[spLogAppend])
	if fsyncs := log.Stats().Fsyncs - logBefore.Fsyncs; fsyncs > 0 {
		v["wal.fsync_us"] = (sum(stt.dur[spLogCommit]) + syncUS) / float64(fsyncs)
	}
	v["wal.fsyncs"] = float64(walAfter.Fsyncs - walBefore.Fsyncs)
	v["wal.bytes_per_record"] = float64(walAfter.AppendedBytes-walBefore.AppendedBytes) / float64(walAfter.Appends-walBefore.Appends)
	v["view.space_ratio"] = float64(withViews.ViewSizeBytes()) / float64(withViews.BaseSizeBytes())
	v["checkpoint_s"] = checkpointS
	setFsio(v, io)
	v["trace_overhead_frac"] = median(stt.dur[spStoreAppend])/median(refUS) - 1
	for _, d := range []string{dir, dir + ".twin", dir + ".log"} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

func setFsio(v map[string]float64, io fsCounts) {
	v["fsio.writes"] = float64(io.Writes)
	v["fsio.write_bytes"] = float64(io.WriteBytes)
	v["fsio.syncs"] = float64(io.Syncs)
	v["fsio.reads"] = float64(io.Reads)
	v["fsio.read_bytes"] = float64(io.ReadBytes)
}

// --- recover-wal ----------------------------------------------------------------

// stripLogs copies src to dst without its log files: the snapshot alone.
func stripLogs(src, dst string) (logs []string, err error) {
	if err := copyDir(src, dst); err != nil {
		return nil, err
	}
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != wal.FileName {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		logs = append(logs, path)
		return os.Remove(filepath.Join(dst, rel))
	})
	return logs, err
}

// minRecoverTraces is the least number of recoveries a traced run takes apart.
const minRecoverTraces = 5

// traceRecover is the traced run of recover-wal. Each operation recovers
// the prepared directory through the facade, through shard.LoadFS on a
// counting filesystem, and then in parts: the snapshot alone, the replay of
// the log over it with and without views to maintain, and the bare log scan.
func traceRecover(cfg runConfig, c *corpus, def workloadDef) (*layerResult, error) {
	lr := &layerResult{def: def, values: map[string]float64{}}
	n1 := c.ingestBoot + c.recoverLog
	c.keepRecords(n1)
	o := newOracle(c.records, def.tol)
	dir := filepath.Join(cfg.outDir, def.Name)
	bareDir := dir + ".bare"
	if err := prepareRecoverDir(dir, c, true); err != nil {
		return nil, err
	}
	if err := prepareRecoverDir(bareDir, c, false); err != nil {
		return nil, err
	}
	c.keepRecords(0)
	logs, err := stripLogs(dir, dir+".snap")
	if err != nil {
		return nil, err
	}
	if _, err := stripLogs(bareDir, bareDir+".snap"); err != nil {
		return nil, err
	}
	osfs := fsio.OS()

	var refUS []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		st, err := grove.LoadStore(dir)
		if err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		refUS = append(refUS, float64(time.Since(t).Nanoseconds())/1e3)
	}

	tr := newTracer()
	lr.tr = tr
	var io fsCounts
	start := time.Now()
	for op := 0; op < minRecoverTraces || time.Since(start).Seconds() < cfg.seconds; op++ {
		root := tr.begin(spLoadStore, op, -1, false)
		st, err := grove.LoadStore(dir)
		if err == nil {
			err = st.Close()
		}
		tr.end(root)
		lr.attempted++
		if err != nil {
			lr.failed++
		}

		fs := newCountingFS(osfs)
		l := tr.begin(spLoadFS, op, root, false)
		co, err := shard.LoadFS(fs, dir)
		if err == nil {
			err = co.Close()
		}
		tr.end(l)
		if err != nil {
			return nil, fmt.Errorf("LoadFS: %w", err)
		}
		io = fs.counts()

		s := tr.begin(spSnapshotLoad, op, l, false)
		withViews, err := shard.LoadFS(osfs, dir+".snap")
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("snapshot load: %w", err)
		}
		rv := tr.begin(spReplayViews, op, l, false)
		err = withViews.ReplayWALFS(osfs, dir, nil)
		tr.end(rv)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		bare, err := shard.LoadFS(osfs, bareDir+".snap")
		if err != nil {
			return nil, fmt.Errorf("bare snapshot load: %w", err)
		}
		rb := tr.begin(spReplayBare, op, rv, false)
		err = bare.ReplayWALFS(osfs, bareDir, nil)
		tr.end(rb)
		if err != nil {
			return nil, fmt.Errorf("bare replay: %w", err)
		}
		for _, path := range logs {
			sc := tr.begin(spScan, op, rb, false)
			res, err := wal.Scan(osfs, path)
			tr.end(sc)
			if err != nil || !res.HeaderOK {
				lr.failed++
			}
		}
		if withViews.NumRecords() != n1 || bare.NumRecords() != n1 {
			lr.replayMismatches++
			lr.failed++
		}
		if err := withViews.Close(); err != nil {
			return nil, err
		}
		if err := bare.Close(); err != nil {
			return nil, err
		}
	}
	lr.queries = c.recoverLog * lr.attempted

	st, err := grove.LoadStore(dir)
	if err != nil {
		return nil, err
	}
	attempted, failed, err := o.probe(st, n1, c.aggPool)
	if err != nil {
		return nil, err
	}
	lr.attempted += attempted
	lr.failed += failed
	if err := st.Close(); err != nil {
		return nil, err
	}

	stt := tr.stats()
	lr.stats = stt
	ops := float64(c.recoverLog)
	scan := stt.opSelf(spScan)
	v := lr.values
	v["grove.facade_us"] = median(stt.self[spLoadStore])
	v["wal.scan_us_per_op"] = median(scan) / ops
	v["shard.replay_us_per_op"] = (median(stt.dur[spReplayViews]) - median(scan)) / ops
	v["view.maintain_us_per_record"] = median(stt.self[spReplayViews]) / ops
	v["colstore.snapshot_load_s"] = median(stt.dur[spSnapshotLoad]) / 1e6
	setFsio(v, io)
	v["trace_overhead_frac"] = median(stt.dur[spLoadStore])/median(refUS) - 1
	for _, d := range []string{dir, dir + ".snap", bareDir, bareDir + ".snap"} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	return lr, nil
}

// traceWorkload makes one traced run on a corpus of its own, and fills in
// what every workload derives from its spans the same way.
func traceWorkload(cfg runConfig, def workloadDef) (*layerResult, error) {
	c, err := newCorpus(cfg.seed, cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	stamp := c.stamp()
	var lr *layerResult
	switch {
	case def.setup != nil:
		lr, err = traceQuery(cfg, c, def)
	case def.Name == "ingest-wal":
		lr, err = traceIngest(cfg, c, def)
	default:
		lr, err = traceRecover(cfg, c, def)
	}
	if err != nil {
		return nil, err
	}
	lr.stamp = stamp
	_, _, lr.values["unattributed_frac"] = lr.stats.layerShares()
	return lr, nil
}

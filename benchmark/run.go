package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"grove"
)

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    int64   // of the corpus and the query pools
	scale   float64 // multiplies corpus, pool and ingest sizes
	seconds float64 // length of the timed window
	setups  int     // set-ups per run; setup_s is their median
	outDir  string  // scratch for store directories and span files
	workers int     // batch workers: one per CPU, never more
}

// counter is one work count taken over the first timed pass. With one
// client and whole passes it repeats exactly for a given seed and scale.
type counter struct {
	Name  string
	Value int64
}

// result is one untraced run of one workload.
type result struct {
	def workloadDef

	setupS []float64 // one per set-up
	latUS  []float64 // one per timed call
	passes []int     // len(latUS) at the end of each pass (round, call)
	rates  []float64 // unit operations per second, one per pass
	heapMB float64   // live heap that releasing the complete store gives back

	attempted, failed int // timed, warm-up and verification calls
	diskBytes         int64
	measures          int64
	counters          []counter

	stamp string  // the corpus the run was fed
	genS  float64 // generating it
	wallS float64 // the whole run, harness work included
}

// p50 is the median over passes of each pass's median call latency. The
// pooled median would do if interference were spread evenly; on a shared
// box it comes in bursts of seconds, which shift a pooled median in
// proportion to the calls they hit and leave this one alone until they hit
// half the passes.
func (r *result) p50() float64 {
	medians := make([]float64, len(r.passes))
	start := 0
	for i, end := range r.passes {
		medians[i] = median(r.latUS[start:end])
		start = end
	}
	return median(medians)
}

func (r *result) metrics() map[string]float64 {
	return map[string]float64{
		"ops_per_s":              median(r.rates),
		"p50_us":                 r.p50(),
		"setup_s":                median(r.setupS),
		"heap_mb":                r.heapMB,
		"disk_bytes_per_measure": float64(r.diskBytes) / float64(r.measures),
	}
}

func (r *result) failFrac() float64 { return float64(r.failed) / float64(r.attempted) }

// heapMB is the live heap after two collections (the second frees what the
// first one's finalizers and sync.Pool victims released). Its cost grows
// with the live heap, and the generated records are 60 KB each: runners
// release them before they call it wherever the workload allows.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// instance is what one set-up produces: a store and the closed loop over it.
type instance struct {
	st    *grove.Store
	dir   string // where the store persists itself; "" for an in-memory store
	calls int    // calls in one pass over the pool
	units int    // unit operations in one pass

	do    func(i int) error        // call i of a pass, timed
	check func(i int) (int, error) // call i again, untimed: 1 when it fails or disagrees with the oracle
	parts func(i int) []part       // what call i sends, for the traced run to re-drive
}

// part is one facade call inside a timed call: its queries, and whether
// they go to Aggregate (SUM) or Match.
type part struct {
	graphs []*grove.Graph
	isAgg  bool
}

// setupFunc is one read workload's set-up: everything the program does
// before it can serve call 0.
type setupFunc func(c *corpus, o *oracle, dir string, cfg runConfig) (*instance, error)

// pass drives one pass over the pool, appending per-call latencies and the
// pass's rate to r.
func (r *result) pass(in *instance) time.Duration {
	start := time.Now()
	for i := 0; i < in.calls; i++ {
		t := time.Now()
		err := in.do(i)
		r.latUS = append(r.latUS, float64(time.Since(t).Nanoseconds())/1e3)
		r.attempted++
		if err != nil {
			r.failed++
		}
	}
	d := time.Since(start)
	r.passes = append(r.passes, len(r.latUS))
	r.rates = append(r.rates, float64(in.units)/d.Seconds())
	return d
}

// snapshot reads every work counter a query store keeps.
func snapshot(st *grove.Store) []counter {
	io := st.IOStatsSnapshot()
	pool := st.StorageStats().Pool
	return []counter{
		{"io.bitmap_columns", int64(io.BitmapColumnsFetched)},
		{"io.measure_columns", int64(io.MeasureColumnsFetched)},
		{"io.measures_scanned", io.MeasuresScanned},
		{"io.partition_joins", io.PartitionJoins},
		{"io.records_returned", io.RecordsReturned},
		{"pool.hits", pool.Hits},
		{"pool.misses", pool.Misses},
		{"pool.evictions", pool.Evictions},
	}
}

func counterDelta(after, before []counter) []counter {
	out := make([]counter, len(after))
	for i := range after {
		out[i] = counter{after[i].Name, after[i].Value - before[i].Value}
	}
	return out
}

// runQuery runs a read workload: cfg.setups set-ups, one warm-up pass over
// the pool, whole timed passes until the window is used, one verification
// pass against the oracle, a Save to measure space, and the store's release
// to measure the heap it held.
func runQuery(cfg runConfig, c *corpus, def workloadDef) (*result, error) {
	r := &result{def: def, measures: c.totalMeasures()}
	o := newOracle(c.records, def.tol)
	dir := filepath.Join(cfg.outDir, def.Name)

	var in *instance
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			if err := in.st.Close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if in, err = def.setup(c, o, dir, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	// The timed window runs beside the store and the pools only: 600 MB of
	// input records would make every collection cycle in it the harness's.
	c.keepRecords(0)

	warm := &result{}
	warmD := warm.pass(in)
	r.attempted, r.failed = warm.attempted, warm.failed
	r.latUS = make([]float64, 0, in.calls*(int(cfg.seconds/warmD.Seconds())+2))

	before := snapshot(in.st)
	window := r.pass(in)
	r.counters = counterDelta(snapshot(in.st), before)
	for window.Seconds() < cfg.seconds {
		window += r.pass(in)
	}

	for i := 0; i < in.calls; i++ {
		bad, err := in.check(i)
		if err != nil {
			return nil, err
		}
		r.attempted++
		r.failed += bad
	}

	if in.dir == "" {
		if err := in.st.Save(dir); err != nil {
			return nil, fmt.Errorf("space probe: %w", err)
		}
	}
	var err error
	if r.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	r.counters = append(r.counters, counter{"disk.bytes", r.diskBytes})

	held := heapMB()
	if err := in.st.Close(); err != nil {
		return nil, err
	}
	in = nil
	r.heapMB = held - heapMB()
	runtime.KeepAlive(o) // the oracle and the pools outlive the store, so the difference is the store's alone
	runtime.KeepAlive(c)
	return r, os.RemoveAll(dir)
}

// --- set-ups of the five read workloads ---------------------------------------

// buildStore loads the whole corpus into an n-shard in-memory store.
func buildStore(c *corpus, n int) *grove.Store {
	st := grove.NewSharded(n) // NewSharded(1) is exactly Open()
	for _, rec := range c.records {
		st.Add(rec)
	}
	st.Optimize()
	return st
}

// materializeViews selects and builds viewsK graph views and viewsK
// aggregate views from sample, the head of the Zipf stream or part of it.
func materializeViews(st *grove.Store, sample []*grove.Graph) error {
	if _, err := st.MaterializeGraphViews(sample, viewsK, grove.AdvisorOptions{}); err != nil {
		return err
	}
	_, err := st.MaterializeAggViews(sample, grove.Sum, viewsK, grove.AdvisorOptions{})
	return err
}

func matchLoop(st *grove.Store, pool []*grove.Graph, o *oracle) *instance {
	return &instance{
		st: st, calls: len(pool), units: len(pool),
		do: func(i int) error {
			_, err := st.Match(pool[i])
			return err
		},
		check: func(i int) (int, error) {
			res, err := st.Match(pool[i])
			return o.checkMatch(res, err, pool[i])
		},
		parts: func(i int) []part { return []part{{graphs: pool[i : i+1]}} },
	}
}

func aggLoop(st *grove.Store, pool []*grove.Graph, o *oracle) *instance {
	return &instance{
		st: st, calls: len(pool), units: len(pool),
		do: func(i int) error {
			_, err := st.Aggregate(pool[i], grove.Sum)
			return err
		},
		check: func(i int) (int, error) {
			res, err := st.Aggregate(pool[i], grove.Sum)
			return o.checkAgg(res, err, pool[i])
		},
		parts: func(i int) []part { return []part{{graphs: pool[i : i+1], isAgg: true}} },
	}
}

func setupMatchUniform(c *corpus, o *oracle, _ string, _ runConfig) (*instance, error) {
	return matchLoop(buildStore(c, 1), c.matchPool, o), nil
}

func setupAggUniform(c *corpus, o *oracle, _ string, _ runConfig) (*instance, error) {
	return aggLoop(buildStore(c, 1), c.aggPool, o), nil
}

func setupAggZipfViews(c *corpus, o *oracle, _ string, _ runConfig) (*instance, error) {
	st := buildStore(c, 1)
	if err := materializeViews(st, c.sample); err != nil {
		return nil, err
	}
	return aggLoop(st, c.zipf, o), nil
}

// openPaged saves st to dir and reopens it with a buffer pool of one
// hundredth of the decoded measure bytes.
func openPaged(st *grove.Store, dir string) (*grove.Store, error) {
	if err := st.Save(dir); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	paged, err := grove.LoadStore(dir)
	if err != nil {
		return nil, err
	}
	paged.SetPageCacheBytes(paged.StorageStats().LogicalBytes / 100)
	return paged, nil
}

func setupAggPaged(c *corpus, o *oracle, dir string, _ runConfig) (*instance, error) {
	st, err := openPaged(buildStore(c, 1), dir)
	if err != nil {
		return nil, err
	}
	in := aggLoop(st, c.aggPool, o)
	in.dir = dir
	return in, nil
}

// batchShards is twice the cores of the reference box: the regime ROADMAP
// 2(c) calls out, where fan-out cannot be paid for by parallelism.
const batchShards = 4

// setupBatchSharded sends, per call, one graph batch from the match pool and
// then one aggregate batch from the path pool, batchSize queries each. The
// pair is the call: timing the two kinds apart would make the latency
// distribution bimodal and its median the edge between the modes.
func setupBatchSharded(c *corpus, o *oracle, _ string, cfg runConfig) (*instance, error) {
	st := buildStore(c, batchShards)
	per := len(c.matchPool) / batchSize
	parts := func(i int) []part {
		return []part{
			{graphs: c.matchPool[i*batchSize : (i+1)*batchSize]},
			{graphs: c.aggPool[i*batchSize : (i+1)*batchSize], isAgg: true},
		}
	}
	return &instance{
		st: st, calls: per, units: 2 * per * batchSize,
		do: func(i int) error {
			p := parts(i)
			if _, err := st.ExecuteBatch(p[0].graphs, cfg.workers); err != nil {
				return err
			}
			_, err := st.AggregateBatch(p[1].graphs, grove.Sum, cfg.workers)
			return err
		},
		check: func(i int) (int, error) {
			p := parts(i)
			res, err := st.ExecuteBatch(p[0].graphs, cfg.workers)
			bad, oerr := checkBatch(res, err, p[0].graphs, o.checkMatch)
			if oerr != nil {
				return 0, oerr
			}
			ares, err := st.AggregateBatch(p[1].graphs, grove.Sum, cfg.workers)
			abad, oerr := checkBatch(ares, err, p[1].graphs, o.checkAgg)
			return bad | abad, oerr
		},
		parts: parts,
	}, nil
}

// checkBatch reports 1 when the batch failed or any of its answers
// disagrees with the oracle.
func checkBatch[T any](res []*T, err error, graphs []*grove.Graph, check func(*T, error, *grove.Graph) (int, error)) (int, error) {
	bad := 0
	for j, g := range graphs {
		var one *T
		if err == nil {
			one = res[j]
		}
		b, oerr := check(one, err, g)
		if oerr != nil {
			return 0, oerr
		}
		bad |= b
	}
	return bad, nil
}

// --- the two write-side workloads -----------------------------------------------

const walShards = 2

// openWALStore is the recipe ingest-wal and recover-wal share: a 2-shard
// store logging to dir at fsync=interval, the first boot records appended,
// views materialised, then one checkpoint so the bootstrap snapshot carries
// records and views and the log starts empty.
func openWALStore(dir string, c *corpus, views bool) (*grove.Store, error) {
	st := grove.NewSharded(walShards)
	if err := st.EnableWAL(dir, grove.WALConfig{Policy: grove.SyncInterval}); err != nil {
		return nil, err
	}
	for _, rec := range c.records[:c.ingestBoot] {
		if _, err := st.Append(rec); err != nil {
			return nil, err
		}
	}
	if views {
		// A quarter of the pools: selection cost grows faster than the
		// number of distinct paths (1 s for all twenty), every ingest round
		// pays it, and the write side needs 100 views to maintain, not the
		// best 100.
		if err := materializeViews(st, c.walSample); err != nil {
			return nil, err
		}
	}
	return st, st.Save(dir)
}

// runIngest appends the ingest records to a fresh WAL store, once per
// round, until the windows add up to cfg.seconds. Every round has its own
// set-up, so rounds double as the set-up samples.
func runIngest(cfg runConfig, c *corpus, def workloadDef) (*result, error) {
	n0, n1 := c.ingestBoot, c.ingestBoot+c.ingest
	r := &result{def: def, measures: c.measures[n1]}
	c.keepRecords(n1)
	o := newOracle(c.records, def.tol)
	dir := filepath.Join(cfg.outDir, def.Name)

	window := 0.0
	for round := 0; window < cfg.seconds || round < cfg.setups; round++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		st, err := openWALStore(dir, c, true)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		before := st.WALStats()

		// The input records stay live through every round, 60 KB each, so a
		// collection cycle that lands in a window marks 400 MB of harness
		// data and slows that round by a fifth. Starting each window from a
		// collected heap puts the next cycle beyond its end in every round.
		runtime.GC()
		start = time.Now()
		for _, rec := range c.records[n0:n1] {
			t := time.Now()
			_, err := st.Append(rec)
			r.latUS = append(r.latUS, float64(time.Since(t).Nanoseconds())/1e3)
			r.attempted++
			if err != nil {
				r.failed++
			}
		}
		if err := st.SyncWAL(); err != nil {
			r.failed++
		}
		d := time.Since(start).Seconds()
		window += d
		r.passes = append(r.passes, len(r.latUS))
		r.rates = append(r.rates, float64(c.ingest)/d)

		if round > 0 {
			if err := st.Close(); err != nil {
				return nil, err
			}
			continue
		}
		// Counters, the probe and the heap come from the first round only:
		// the records stay live for the next one, so measuring the heap
		// costs two collections of all of them.
		after := st.WALStats()
		if r.diskBytes, err = dirBytes(dir); err != nil {
			return nil, err
		}
		r.counters = []counter{
			{"wal.appends", after.Appends - before.Appends},
			{"wal.appended_bytes", after.AppendedBytes - before.AppendedBytes},
			{"disk.bytes", r.diskBytes},
		}
		attempted, failed, err := o.probe(st, n1, c.aggPool)
		if err != nil {
			return nil, err
		}
		r.attempted += attempted
		r.failed += failed
		held := heapMB()
		if err := st.Close(); err != nil {
			return nil, err
		}
		st = nil
		r.heapMB = held - heapMB()
	}
	runtime.KeepAlive(o)
	return r, os.RemoveAll(dir)
}

// prepareRecoverDir leaves in dir what a crash after recoverLog appends
// would: the bootstrap snapshot with views, and the log, never checkpointed.
func prepareRecoverDir(dir string, c *corpus, views bool) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := openWALStore(dir, c, views)
	if err != nil {
		return err
	}
	for _, rec := range c.records[c.ingestBoot : c.ingestBoot+c.recoverLog] {
		if _, err := st.Append(rec); err != nil {
			return err
		}
	}
	return st.Close()
}

// minRecoverCalls is the least number of LoadStore calls a run times.
const minRecoverCalls = 12

// runRecover times LoadStore+Close on a prepared directory, back to back
// with no warm-up, checking between calls that recovery left it untouched.
func runRecover(cfg runConfig, c *corpus, def workloadDef) (*result, error) {
	n1 := c.ingestBoot + c.recoverLog
	r := &result{def: def, measures: c.measures[n1]}
	c.keepRecords(n1)
	o := newOracle(c.records, def.tol)
	dir := filepath.Join(cfg.outDir, def.Name)
	pristine := dir + ".pristine"

	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		if err := prepareRecoverDir(dir, c, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	c.keepRecords(0)
	if err := copyDir(dir, pristine); err != nil {
		return nil, err
	}
	want, err := hashDir(dir)
	if err != nil {
		return nil, err
	}

	window := 0.0
	var replayed int64
	for call := 0; window < cfg.seconds || call < minRecoverCalls; call++ {
		// Every call starts from a collected heap, so that which calls pay
		// for a collection cycle is not left to where the last one stopped.
		runtime.GC()
		start := time.Now()
		st, err := grove.LoadStore(dir)
		if err == nil {
			replayed = st.WALStats().ReplayedOps
			err = st.Close()
		}
		d := time.Since(start).Seconds()
		window += d
		r.latUS = append(r.latUS, d*1e6)
		r.passes = append(r.passes, len(r.latUS))
		r.rates = append(r.rates, float64(c.recoverLog)/d)
		r.attempted++
		if err != nil || replayed != int64(c.recoverLog) {
			r.failed++
		}
		got, err := hashDir(dir)
		if err != nil {
			return nil, err
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "recover-wal: call %d changed the directory; restoring the pristine copy\n", call)
			if err := copyDir(pristine, dir); err != nil {
				return nil, err
			}
		}
	}

	st, err := grove.LoadStore(dir)
	if err != nil {
		return nil, err
	}
	attempted, failed, err := o.probe(st, n1, c.aggPool)
	if err != nil {
		return nil, err
	}
	r.attempted += attempted
	r.failed += failed
	held := heapMB()
	if err := st.Close(); err != nil {
		return nil, err
	}
	st = nil
	r.heapMB = held - heapMB()
	runtime.KeepAlive(o)
	runtime.KeepAlive(c)
	if r.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	r.counters = []counter{{"wal.replayed_ops", replayed}, {"disk.bytes", r.diskBytes}}
	if err := os.RemoveAll(pristine); err != nil {
		return nil, err
	}
	return r, os.RemoveAll(dir)
}

// runWorkload makes one untraced run: a corpus of its own, which the
// runner releases as soon as the workload is done with the records, then
// the workload.
func runWorkload(cfg runConfig, def workloadDef) (*result, error) {
	start := time.Now()
	c, err := newCorpus(cfg.seed, cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	stamp, genS := c.stamp(), time.Since(start).Seconds()
	var r *result
	switch {
	case def.setup != nil:
		r, err = runQuery(cfg, c, def)
	case def.Name == "ingest-wal":
		r, err = runIngest(cfg, c, def)
	default:
		r, err = runRecover(cfg, c, def)
	}
	if err == nil {
		r.stamp, r.genS, r.wallS = stamp, genS, time.Since(start).Seconds()
	}
	return r, err
}

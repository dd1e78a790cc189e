// Command grovecli opens a saved grove store and runs ad-hoc inspections and
// queries against it.
//
// Usage:
//
//	grovecli -store /tmp/ny info
//	grovecli -store /tmp/ny match n1 n2 n13          # path containment query
//	grovecli -store /tmp/ny agg SUM n1 n2 n13        # path aggregation
//	grovecli -store /tmp/ny avg n1 n2 n13            # algebraic AVG along a path
//	grovecli -store /tmp/ny summary SUM n1 n2 n13    # consolidated statistics
//	grovecli -store /tmp/ny views                    # list materialized views
//	grovecli -store /tmp/ny addview myview n1 n2 n13 # materialize a graph view
//	grovecli -store /tmp/ny addagg myagg SUM n1 n2 n13
//	grovecli -store /tmp/ny tag 17 type fast-track   # tag a record
//	grovecli -store /tmp/ny q "[n1,n2] AND NOT [n3,n4]"  # text query language
//	grovecli -store /tmp/ny q "SUM [n1,n2,n13]"
//	grovecli -store /tmp/ny advise workload.grq 20   # propose views for a workload
//	grovecli -store /tmp/ny analyze n1 n2 n13        # EXPLAIN ANALYZE a path query
//	grovecli -store /tmp/ny metrics "[n1,n2]"        # run statements, dump metrics
//	grovecli -store /tmp/ny slow "SUM [n1,n2,n13]"   # run statements, dump slow-query log
//	grovecli -store /tmp/ny recover                  # inventory snapshot generations
//	grovecli -store /tmp/ny recover gen-000001       # force-install a generation
//	grovecli -store /tmp/ny wal                      # inspect the write-ahead logs
//	grovecli -store /tmp/ny replay workload.jsonl    # replay a captured workload, digests verified
//
// On a sharded store directory (groveload -shards N), recover lists every
// shard's generations and marks the cut the SHARDS.json manifest pins, and
// wal lists every shard's log.
//
// With -metrics ADDR, grovecli serves /metrics (Prometheus text), /traces
// (JSON) and /debug/slow (JSONL) on ADDR after the command runs, until
// interrupted.
//
// Mutating commands (addview, addagg, tag) re-save the store before exiting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"grove"
	"grove/internal/obs"
	"grove/internal/shard"
)

func main() {
	store := flag.String("store", "", "store directory written by groveload or Store.Save (required)")
	limit := flag.Int("limit", 10, "max records to print for match/agg")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /traces on this address after the command runs, until interrupted (e.g. :9090)")
	flag.Parse()

	if *store == "" || flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	// recover inspects the snapshot generations on disk and must work on a
	// store too damaged to load, so it is handled before LoadStore.
	if flag.Arg(0) == "recover" {
		recoverStore(*store, flag.Args()[1:])
		return
	}
	// wal likewise inspects the write-ahead logs without loading (Scan never
	// modifies them), so it works mid-crash-investigation on a damaged store.
	if flag.Arg(0) == "wal" {
		inspectWAL(*store)
		return
	}
	st, err := grove.LoadStore(*store)
	if err != nil {
		fatal(err)
	}
	var msrv *grove.MetricsServer
	if *metricsAddr != "" {
		// Wire metrics, tracing and the slow-query log (threshold 0: log
		// everything) before the command so its queries show up.
		st.EnableTracing(0)
		st.EnableSlowQueryLog(0, 0)
		if msrv, err = st.ServeMetrics(*metricsAddr); err != nil {
			fatal(err)
		}
	}

	args := flag.Args()
	switch cmd := args[0]; cmd {
	case "info":
		info(st)
	case "match":
		if len(args) < 3 {
			fatal(fmt.Errorf("match needs at least 2 node names"))
		}
		match(st, args[1:], *limit)
	case "agg":
		if len(args) < 4 {
			fatal(fmt.Errorf("agg needs a function and at least 2 node names"))
		}
		aggregate(st, args[1], args[2:], *limit)
	case "views":
		listViews(st)
	case "addview":
		if len(args) < 4 {
			fatal(fmt.Errorf("addview needs a name and at least 2 node names"))
		}
		addView(st, *store, args[1], args[2:])
	case "addagg":
		if len(args) < 5 {
			fatal(fmt.Errorf("addagg needs a name, a function and at least 2 node names"))
		}
		addAggView(st, *store, args[1], args[2], args[3:])
	case "avg":
		if len(args) < 3 {
			fatal(fmt.Errorf("avg needs at least 2 node names"))
		}
		average(st, args[1:], *limit)
	case "summary":
		if len(args) < 4 {
			fatal(fmt.Errorf("summary needs a function and at least 2 node names"))
		}
		summary(st, args[1], args[2:])
	case "tag":
		if len(args) != 4 {
			fatal(fmt.Errorf("tag needs a record id, a key and a value"))
		}
		tagRecord(st, *store, args[1], args[2], args[3])
	case "q":
		if len(args) != 2 {
			fatal(fmt.Errorf("q needs one quoted statement"))
		}
		textQuery(st, args[1], *limit)
	case "explain":
		if len(args) < 3 {
			fatal(fmt.Errorf("explain needs at least 2 node names"))
		}
		explain(st, args[1:])
	case "analyze":
		if len(args) < 3 {
			fatal(fmt.Errorf("analyze needs at least 2 node names"))
		}
		analyze(st, args[1:])
	case "metrics":
		dumpMetrics(st, args[1:], *limit)
	case "slow":
		slowQueries(st, args[1:], *limit)
	case "advise":
		if len(args) != 3 {
			fatal(fmt.Errorf("advise needs a workload file and a budget k"))
		}
		advise(st, args[1], args[2])
	case "replay":
		if len(args) != 2 {
			fatal(fmt.Errorf("replay needs one workload log"))
		}
		replay(st, args[1])
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}

	if msrv != nil {
		fmt.Fprintf(os.Stderr, "serving http://%s/metrics, /traces and /debug/slow (interrupt to exit)\n", msrv.Addr())
		select {}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: grovecli -store DIR <info|match|agg|avg|summary|q|explain|analyze|metrics|slow|advise|replay|views|addview|addagg|tag|recover|wal> [args]")
	flag.PrintDefaults()
}

// recoverStore lists the store's snapshot generations, or with a generation
// name argument force-installs that generation as CURRENT. It never loads
// the store, so it works when the installed snapshot is damaged. Sharded
// stores list every shard's generations with the manifest's pinned cut
// marked; their loadable state is the SHARDS.json manifest, so per-shard
// force-install is refused.
func recoverStore(dir string, args []string) {
	dirs, pinned, err := shard.ShardDirs(dir)
	if err != nil {
		fatal(err)
	}
	if pinned != nil {
		recoverSharded(dirs, pinned, args)
		return
	}
	switch len(args) {
	case 0:
		infos, err := grove.Generations(dir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s %12s  %-8s %s\n", "GENERATION", "BYTES", "CURRENT", "STATUS")
		for _, info := range infos {
			cur := ""
			if info.Current {
				cur = "current"
			}
			fmt.Printf("%-14s %12d  %-8s %s\n", info.Name, info.SizeBytes, cur, info.Status)
		}
		fmt.Fprintln(os.Stderr, "\nto force-install a generation: grovecli -store DIR recover <generation>")
	case 1:
		gen := args[0]
		if err := grove.Rollback(dir, gen); err != nil {
			fatal(err)
		}
		fmt.Printf("installed %s as the current generation of %s\n", gen, dir)
		// Prove the rollback target actually loads end to end.
		if _, err := grove.LoadStore(dir); err != nil {
			fatal(fmt.Errorf("rolled back, but the store still fails to load: %w", err))
		}
		fmt.Println("store loads cleanly")
	default:
		fatal(fmt.Errorf("recover takes at most one generation name"))
	}
}

// recoverSharded inventories every shard's generations, marking the cut the
// durable SHARDS.json manifest pins (which is what Load reconstructs, even
// when a crashed save left newer per-shard CURRENT pointers behind).
func recoverSharded(dirs, pinned []string, args []string) {
	if len(args) > 0 {
		fatal(fmt.Errorf("sharded stores recover through the SHARDS.json manifest, which always pins a consistent cross-shard cut; per-shard force-install would tear it"))
	}
	fmt.Printf("%-10s %-14s %12s  %-8s %-8s %s\n", "SHARD", "GENERATION", "BYTES", "CURRENT", "PINNED", "STATUS")
	for i, sd := range dirs {
		infos, err := grove.Generations(sd)
		if err != nil {
			fatal(fmt.Errorf("shard %d: %w", i, err))
		}
		for _, info := range infos {
			cur, pin := "", ""
			if info.Current {
				cur = "current"
			}
			if info.Name == pinned[i] {
				pin = "pinned"
			}
			fmt.Printf("%-10d %-14s %12d  %-8s %-8s %s\n", i, info.Name, info.SizeBytes, cur, pin, info.Status)
		}
	}
	fmt.Fprintln(os.Stderr, "\nLoad reconstructs the pinned cut; it ignores per-shard CURRENT pointers")
}

// inspectWAL scans the store's write-ahead log files read-only and reports
// each one's identity (pinned generation, LSN range), contents and tail
// health. A torn tail here is normal after a crash: Load truncates it and
// replays the valid prefix.
func inspectWAL(dir string) {
	infos, err := grove.InspectWAL(dir)
	if err != nil {
		fatal(err)
	}
	for i, info := range infos {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s\n", info.Path)
		if !info.Exists {
			fmt.Println("  no log file (store runs without WAL, or it was never enabled)")
			continue
		}
		if !info.HeaderOK {
			fmt.Printf("  header unreadable: %s\n", info.HeaderErr)
			fmt.Println("  replay ignores this log; the snapshot alone carries the state")
			continue
		}
		fmt.Printf("  shard:      %d\n", info.Shard)
		fmt.Printf("  generation: %s (the snapshot this log extends)\n", info.Gen)
		fmt.Printf("  lsn range:  [%d, %d)  %d op(s)\n", info.BaseLSN, info.NextLSN, info.Ops)
		if len(info.Kinds) > 0 {
			var parts []string
			for _, k := range []string{"add-record", "append-edge", "delete", "undelete", "tag"} {
				if n := info.Kinds[k]; n > 0 {
					parts = append(parts, fmt.Sprintf("%s=%d", k, n))
				}
			}
			fmt.Printf("  ops:        %s\n", strings.Join(parts, " "))
		}
		if info.TornBytes > 0 {
			fmt.Printf("  tail:       TORN — %d valid byte(s), %d torn (%s)\n",
				info.GoodBytes, info.TornBytes, info.TornReason)
			fmt.Println("              Load truncates the torn tail and replays the valid prefix")
		} else {
			fmt.Printf("  tail:       clean (%d bytes)\n", info.GoodBytes)
		}
	}
}

// replay re-executes a workload log captured by Store.StartWorkloadRecording
// against the store, verifying each answer's digest against the recorded
// one. Any mismatch exits non-zero.
func replay(st *grove.Store, logPath string) {
	events, err := grove.ReadWorkloadLog(logPath)
	if err != nil {
		fatal(err)
	}
	stats, err := st.ReplayWorkload(events)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d query event(s) against %d shard(s): %d replayed, %d skipped, %d verified, %d mismatched\n",
		stats.Queries, st.Stats().Shards, stats.Replayed, stats.Skipped, stats.Verified, stats.Mismatched)
	if stats.Mismatched != 0 {
		fatal(fmt.Errorf("%d replayed answer(s) differ from the recording", stats.Mismatched))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grovecli:", err)
	os.Exit(1)
}

func info(st *grove.Store) {
	s := st.Stats()
	fmt.Printf("records:         %d (%d deleted)\n", s.Records, s.Deleted)
	fmt.Printf("shards:          %d\n", s.Shards)
	fmt.Printf("distinct edges:  %d over %d partition(s)\n", s.DistinctEdges, s.Partitions)
	fmt.Printf("measures:        %d values", s.TotalMeasures)
	if len(s.MeasureNames) > 0 {
		fmt.Printf(" (named: %s)", strings.Join(s.MeasureNames, " "))
	}
	fmt.Println()
	fmt.Printf("payload bytes:   %d base + %d views\n", s.BaseSizeBytes, s.ViewSizeBytes)
	fmt.Printf("graph views:     %d  %s\n", len(s.ViewNames), strings.Join(s.ViewNames, " "))
	fmt.Printf("aggregate views: %d  %s\n", len(s.AggViewNames), strings.Join(s.AggViewNames, " "))
	if len(s.TagKeys) > 0 {
		fmt.Printf("tag keys:        %s\n", strings.Join(s.TagKeys, " "))
	}
	// Storage residency (DESIGN.md §13): logical is what the measure columns
	// represent, on-disk is their encoded block payloads, resident is what is
	// decoded in memory right now.
	stg := s.Storage
	fmt.Printf("measure bytes:   %d logical, %d on disk, %d resident\n",
		stg.LogicalBytes, stg.OnDiskBytes, stg.ResidentBytes)
	fmt.Printf("paged columns:   %d paged, %d resident\n", stg.PagedColumns, stg.ResidentColumns)
	if p := stg.Pool; p.Hits+p.Misses > 0 || p.BudgetBytes > 0 {
		fmt.Printf("buffer pool:     %d hits, %d misses, %d evictions, %d/%d bytes\n",
			p.Hits, p.Misses, p.Evictions, p.ResidentBytes, p.BudgetBytes)
	}
	logReplay(st)
}

// logReplay prints where this load's write-ahead-log replay went, shard by
// shard, from the wal-replay trace the load recorded (DESIGN.md §14): the
// trace is handed to the first ring attached after the load.
func logReplay(st *grove.Store) {
	if st.RecentTraces() == nil {
		st.EnableTracing(0)
	}
	for _, t := range st.RecentTraces() {
		if t.Kind != obs.KindWALReplay {
			continue
		}
		ws := st.WALStats()
		fmt.Printf("log replay:      %d op(s) in %.1f ms, %d log(s) skipped\n",
			ws.ReplayedOps, float64(t.DurationNanos)/1e6, ws.SkippedLogs)
		for _, sp := range t.Spans {
			fmt.Printf("  shard %d %-9s %.1f ms\n", sp.Shard, sp.Phase, float64(sp.DurationNanos)/1e6)
		}
	}
}

func match(st *grove.Store, nodes []string, limit int) {
	res, err := st.Match(grove.PathOf(nodes...).ToGraph())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("matched %d records (plan: %d bitmap columns)\n",
		res.NumRecords(), res.Plan.NumBitmaps())
	n := 0
	res.Answer.Each(func(rec uint32) bool {
		fmt.Printf("  record %d\n", rec)
		n++
		return n < limit
	})
}

func aggregate(st *grove.Store, fname string, nodes []string, limit int) {
	f, ok := aggByName(fname)
	if !ok {
		fatal(fmt.Errorf("unknown aggregate function %q (SUM|MIN|MAX|COUNT)", fname))
	}
	res, err := st.Aggregate(grove.PathOf(nodes...).ToGraph(), f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("matched %d records along %d path(s)\n", len(res.RecordIDs), len(res.Paths))
	for i, rec := range res.RecordIDs {
		if i >= limit {
			fmt.Printf("  ... %d more\n", len(res.RecordIDs)-limit)
			break
		}
		v := res.Values[0][i]
		if math.IsNaN(v) {
			fmt.Printf("  record %d: NULL\n", rec)
		} else {
			fmt.Printf("  record %d: %s = %.3f\n", rec, f.Name, v)
		}
	}
}

func aggByName(name string) (grove.AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "SUM":
		return grove.Sum, true
	case "MIN":
		return grove.Min, true
	case "MAX":
		return grove.Max, true
	case "COUNT":
		return grove.Count, true
	}
	return grove.AggFunc{}, false
}

func average(st *grove.Store, nodes []string, limit int) {
	ids, avgs, err := st.AveragePath(nodes...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("matched %d records\n", len(ids))
	for i, rec := range ids {
		if i >= limit {
			fmt.Printf("  ... %d more\n", len(ids)-limit)
			break
		}
		if math.IsNaN(avgs[i]) {
			fmt.Printf("  record %d: NULL\n", rec)
		} else {
			fmt.Printf("  record %d: AVG = %.3f\n", rec, avgs[i])
		}
	}
}

func summary(st *grove.Store, fname string, nodes []string) {
	f, ok := aggByName(fname)
	if !ok {
		fatal(fmt.Errorf("unknown aggregate function %q", fname))
	}
	res, err := st.Aggregate(grove.PathOf(nodes...).ToGraph(), f)
	if err != nil {
		fatal(err)
	}
	s := grove.Summarize(res.FoldAcrossPaths())
	fmt.Printf("records: %d\n", s.Count)
	fmt.Printf("%s sum=%.3f mean=%.3f stddev=%.3f min=%.3f max=%.3f\n",
		f.Name, s.Sum, s.Mean, s.StdDev, s.Min, s.Max)
}

func advise(st *grove.Store, workloadFile, kStr string) {
	var k int
	if _, err := fmt.Sscanf(kStr, "%d", &k); err != nil || k <= 0 {
		fatal(fmt.Errorf("bad budget %q", kStr))
	}
	f, err := os.Open(workloadFile)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	workload, err := grove.ParseWorkload(f)
	if err != nil {
		fatal(err)
	}
	rep, err := st.AdviseGraphViews(workload, k, grove.AdvisorOptions{})
	if err != nil {
		fatal(err)
	}
	if err := st.RenderAdvice(os.Stdout, rep); err != nil {
		fatal(err)
	}
}

func explain(st *grove.Store, nodes []string) {
	ex, err := st.Explain(grove.PathOf(nodes...).ToGraph())
	if err != nil {
		fatal(err)
	}
	fmt.Print(ex.String())
}

func analyze(st *grove.Store, nodes []string) {
	a, err := st.ExplainAnalyze(grove.PathOf(nodes...).ToGraph())
	if err != nil {
		fatal(err)
	}
	fmt.Print(a.String())
}

// dumpMetrics executes any statements given (traced and metered), then dumps
// the metrics registry in Prometheus text format.
func dumpMetrics(st *grove.Store, statements []string, limit int) {
	st.EnableTracing(0)
	reg := st.Metrics()
	for _, text := range statements {
		textQuery(st, text, limit)
	}
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		fatal(err)
	}
}

// slowQueries executes any statements given with the slow-query log capturing
// everything (threshold 0), then dumps the log as JSONL, newest first — the
// same shape /debug/slow serves.
func slowQueries(st *grove.Store, statements []string, limit int) {
	st.EnableSlowQueryLog(0, 0)
	for _, text := range statements {
		textQuery(st, text, limit)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, q := range st.SlowQueries() {
		if err := enc.Encode(q); err != nil {
			fatal(err)
		}
	}
}

func textQuery(st *grove.Store, text string, limit int) {
	res, err := st.Query(text)
	if err != nil {
		fatal(err)
	}
	if res.IDs != nil {
		fmt.Printf("matched %d records\n", res.IDs.Cardinality())
		n := 0
		res.IDs.Each(func(rec uint32) bool {
			fmt.Printf("  record %d\n", rec)
			n++
			return n < limit
		})
		return
	}
	agg := res.Agg
	fmt.Printf("matched %d records along %d path(s)\n", len(agg.RecordIDs), len(agg.Paths))
	for i, rec := range agg.RecordIDs {
		if i >= limit {
			fmt.Printf("  ... %d more\n", len(agg.RecordIDs)-limit)
			break
		}
		v := agg.Values[0][i]
		if math.IsNaN(v) {
			fmt.Printf("  record %d: NULL\n", rec)
		} else {
			fmt.Printf("  record %d: %.3f\n", rec, v)
		}
	}
}

func tagRecord(st *grove.Store, dir, recStr, key, value string) {
	var rec uint32
	if _, err := fmt.Sscanf(recStr, "%d", &rec); err != nil {
		fatal(fmt.Errorf("bad record id %q", recStr))
	}
	if err := st.Tag(rec, key, value); err != nil {
		fatal(err)
	}
	if err := st.Save(dir); err != nil {
		fatal(err)
	}
	fmt.Printf("tagged record %d with %s=%s\n", rec, key, value)
}

func listViews(st *grove.Store) {
	s := st.Stats()
	fmt.Println("graph views:")
	for _, v := range s.ViewNames {
		fmt.Printf("  %s\n", v)
	}
	fmt.Println("aggregate views:")
	for _, v := range s.AggViewNames {
		fmt.Printf("  %s\n", v)
	}
}

func addView(st *grove.Store, dir, name string, nodes []string) {
	if err := st.MaterializeView(name, grove.PathOf(nodes...).ToGraph()); err != nil {
		fatal(err)
	}
	if err := st.Save(dir); err != nil {
		fatal(err)
	}
	fmt.Printf("materialized graph view %s over path %v\n", name, nodes)
}

func addAggView(st *grove.Store, dir, name, fname string, nodes []string) {
	f, ok := aggByName(fname)
	if !ok {
		fatal(fmt.Errorf("unknown aggregate function %q", fname))
	}
	if err := st.MaterializeAggViewPath(name, f, "", nodes...); err != nil {
		fatal(err)
	}
	if err := st.Save(dir); err != nil {
		fatal(err)
	}
	fmt.Printf("materialized aggregate view %s (%s) over path %v\n", name, f.Name, nodes)
}

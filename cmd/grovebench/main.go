// Command grovebench regenerates the tables and figures of the paper's
// evaluation section over grove's synthetic stand-in datasets.
//
// Usage:
//
//	grovebench -exp fig6                # one experiment
//	grovebench -exp all                 # the whole suite
//	grovebench -exp fig3a -csv          # machine-readable output
//	grovebench -exp measurescan -json   # JSON output (baseline files)
//	grovebench -exp fig6 -ny 100000     # scale a dataset up
//	grovebench -exp batch -parallel     # batch speedup, NumCPU workers
//	grovebench -exp batch -workers 8    # batch speedup, fixed pool size
//	grovebench -exp replay              # record→replay round trip, digests verified
//	grovebench -exp replay -replay-log w.jsonl -replay-store /tmp/ny
//	                                    # replay a captured workload against a saved store
//	grovebench -list                    # list experiment ids
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"grove/internal/bench"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list = flag.Bool("list", false, "list experiments and exit")
		csv  = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		js   = flag.Bool("json", false, "emit JSON instead of an aligned table")

		sens     = flag.Int("sens", 0, "sensitivity-unit record count (fig3/4/5 base; 0 = default)")
		ny       = flag.Int("ny", 0, "NY dataset record count (fig6/8/9; 0 = default)")
		gnu      = flag.Int("gnu", 0, "GNU dataset record count (fig7/8; 0 = default)")
		queries  = flag.Int("q", 0, "queries per workload (0 = default 100)")
		seed     = flag.Int64("seed", 42, "workload seed")
		parallel = flag.Bool("parallel", false, "run batch workloads across runtime.NumCPU() workers")
		workers  = flag.Int("workers", 0, "worker-pool size for batch workloads (implies -parallel; 0 = NumCPU with -parallel)")

		replayLog   = flag.String("replay-log", "", "replay this captured workload log (grove.StartWorkloadRecording) instead of the self-contained round trip (replay experiment only)")
		replayStore = flag.String("replay-store", "", "saved store directory to replay -replay-log against")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Description)
		}
		return
	}

	sc := bench.DefaultScale()
	sc.Seed = *seed
	if *sens > 0 {
		sc.SensitivityRecords = *sens
	}
	if *ny > 0 {
		sc.NYRecords = *ny
	}
	if *gnu > 0 {
		sc.GNURecords = *gnu
	}
	if *queries > 0 {
		sc.NumQueries = *queries
	}
	if *workers > 0 {
		sc.Workers = *workers
	} else if *parallel {
		sc.Workers = runtime.NumCPU()
	}
	sc.ReplayLog = *replayLog
	sc.ReplayStore = *replayStore

	var experiments []bench.Experiment
	if *exp == "all" {
		experiments = bench.Registry()
	} else {
		e, err := bench.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		experiments = []bench.Experiment{e}
	}

	ctx := context.Background()
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "running %s: %s ...\n", e.ID, e.Description)
		tab, err := e.Run(ctx, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		var werr error
		switch {
		case *js:
			werr = tab.JSON(os.Stdout)
		case *csv:
			werr = tab.CSV(os.Stdout)
		default:
			werr = tab.Print(os.Stdout)
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "%s: writing output: %v\n", e.ID, werr)
			os.Exit(1)
		}
	}
}

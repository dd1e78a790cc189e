// Command grovebench regenerates the tables and figures of the paper's
// evaluation section over grove's synthetic stand-in datasets.
//
// Usage:
//
//	grovebench -exp fig6                # one experiment
//	grovebench -exp all                 # the whole suite
//	grovebench -exp fig3a -csv          # machine-readable output
//	grovebench -exp fig6 -ny 100000     # scale a dataset up
//	grovebench -list                    # list experiment ids
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"grove/internal/bench"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list = flag.Bool("list", false, "list experiments and exit")
		csv  = flag.Bool("csv", false, "emit CSV instead of an aligned table")

		sens    = flag.Int("sens", 0, "sensitivity-unit record count (fig3/4/5 base; 0 = default)")
		ny      = flag.Int("ny", 0, "NY dataset record count (fig6/8/9; 0 = default)")
		gnu     = flag.Int("gnu", 0, "GNU dataset record count (fig7/8; 0 = default)")
		queries = flag.Int("q", 0, "queries per workload (0 = default 100)")
		seed    = flag.Int64("seed", 42, "workload seed")
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
		write := tab.Print
		if *csv {
			write = tab.CSV
		}
		if err := write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing output: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}

// Command benchmark is grove's end-to-end benchmark: seven named workloads
// driven closed-loop from one process, five end-to-end metrics plus a
// failure count on each, and a separate traced run that attributes the time
// of each workload's call to grove's layers from outside. See README.md.
//
//	go run ./benchmark                         every workload, untraced
//	go run ./benchmark -workload agg-uniform   one workload
//	go run ./benchmark -trace 1                per-layer metrics and span files
//	go run ./benchmark -selfcheck              two runs of the suite compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		names     = flag.String("workload", "", "comma-separated workloads to run (default: all seven)")
		seed      = flag.Int64("seed", 42, "seed of the corpus and the query pools")
		seconds   = flag.Float64("seconds", 5, "length of each workload's timed window")
		trace     = flag.Int("trace", 0, "1: traced run, per-layer metrics and span files; 0: end-to-end metrics")
		scale     = flag.Float64("scale", 1, "multiplies corpus, pool and ingest sizes (2 is the issue's ny20k)")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and compare the two")
		outDir    = flag.String("out", "benchmark/out", "directory for store files and span files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	var defs []workloadDef
	if *names == "" {
		defs = workloads
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		def, ok := findWorkload(name)
		if !ok {
			fatalf("unknown workload %q", name)
		}
		defs = append(defs, def)
	}
	cfg := runConfig{seed: *seed, scale: *scale, seconds: *seconds, setups: 3, outDir: *outDir, workers: runtime.NumCPU()}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("# env %s\n", envStamp(cfg))

	var ok bool
	var err error
	switch {
	case *selfcheck:
		ok, err = runSelfcheck(os.Stdout, cfg, defs)
	case *trace == 1:
		ok, err = runTraced(os.Stdout, cfg, defs)
	default:
		ok, err = runUntraced(os.Stdout, cfg, defs)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// envStamp is the environment every result is read against.
func envStamp(cfg runConfig) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s GOMAXPROCS=%d NumCPU=%d seed=%d scale=%g seconds=%g setups=%d",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.seed, cfg.scale, cfg.seconds, cfg.setups)
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResultLine(w io.Writer, attempted, failed int, defs []metricDef, values map[string]float64) error {
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runUntraced runs each workload once and prints its end-to-end metrics,
// then the machine-read result line. It reports false when any call failed
// or any answer disagreed with the oracle.
func runUntraced(w io.Writer, cfg runConfig, defs []workloadDef) (bool, error) {
	ok := true
	for _, def := range defs {
		r, err := runWorkload(cfg, def)
		if err != nil {
			return false, fmt.Errorf("%s: %w", def.Name, err)
		}
		printResult(w, r)
		if err := printResultLine(w, r.attempted, r.failed, endToEnd, r.metrics()); err != nil {
			return false, err
		}
		ok = ok && r.failed == 0
	}
	return ok, nil
}

// printResult writes one workload's end-to-end metrics by name with units,
// p99 beside p50, and the exact counters of the first timed pass.
func printResult(w io.Writer, r *result) {
	m := r.metrics()
	fmt.Fprintf(w, "\n## %s   unit=%s   call=%s\n# corpus %s gen_s=%.3f\n", r.def.Name, r.def.Unit, r.def.Call, r.stamp, r.genS)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-24s %14.4f %-10s (%s is better, bound %.0f%%)\n", d.Name, m[d.Name], d.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintf(w, "%-24s %14.6f %-10s (%d failed of %d calls)\n", "fail_frac", r.failFrac(), "frac", r.failed, r.attempted)
	fmt.Fprintf(w, "%-24s %14.4f %-10s (n=%d calls, pooled; p50 is the median of %d per-pass medians; %d set-ups; run took %.1f s)\n",
		"p99_us", percentile(r.latUS, 0.99), "us", len(r.latUS), len(r.rates), len(r.setupS), r.wallS)
	for _, ct := range r.counters {
		fmt.Fprintf(w, "exact %-18s %14d\n", ct.Name, ct.Value)
	}
}

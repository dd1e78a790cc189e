package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// runTraced runs the traced variant of each workload, prints the per-layer
// metrics, the self-time table and the side-by-side with the repo's own
// spans, writes the span file, and ends with the machine-read result line.
func runTraced(w io.Writer, cfg runConfig, defs []workloadDef) (bool, error) {
	ok := true
	for _, def := range defs {
		lr, err := traceWorkload(cfg, def)
		if err != nil {
			return false, fmt.Errorf("%s: %w", def.Name, err)
		}
		path := filepath.Join(cfg.outDir, "trace-"+def.Name+".json")
		if err := lr.tr.write(path, def.Name, envStamp(cfg)+" "+lr.stamp); err != nil {
			return false, err
		}
		printLayers(w, lr, path)
		if err := printResultLine(w, lr.attempted, lr.failed, perLayer, lr.values); err != nil {
			return false, err
		}
		ok = ok && lr.failed == 0
	}
	return ok, nil
}

// ownVsHarness pairs phases of the repo's own tracing with the harness
// spans that time the same work from outside.
var ownVsHarness = []struct {
	label string
	own   []string
	spans []spanName
}{
	{"plan", []string{"plan"}, []spanName{spPlanCover, spMaximalPaths}},
	{"fetch+intersect", []string{"fetch", "intersect"}, []spanName{spAndAll}},
	{"measure-scan", []string{"measure-scan", "block-skip"}, []spanName{spGather, spGatherPaged}},
	{"aggregate", []string{"aggregate"}, []spanName{spKernel}},
	{"fan-out+wait+merge", []string{"fan-out", "queue-wait", "merge"}, []spanName{spCoordQuery}},
}

func printLayers(w io.Writer, lr *layerResult, path string) {
	fmt.Fprintf(w, "\n## %s (traced)   %d calls, %d x %s, %d spans -> %s\n# corpus %s\n",
		lr.def.Name, lr.attempted, lr.queries, lr.def.Unit, len(lr.tr.spans), path, lr.stamp)
	for _, d := range perLayer {
		if v, ok := lr.values[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}

	layers, share, unattributed := lr.stats.layerShares()
	sort.SliceStable(layers, func(i, j int) bool { return share[layers[i]] > share[layers[j]] })
	fmt.Fprintf(w, "self time by layer, share of the traced end-to-end call:\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %7.1f%%\n", l, 100*share[l])
	}
	flag := ""
	if unattributed > 0.10 {
		flag = "   <-- above 0.10: a finding, see README"
	}
	fmt.Fprintf(w, "  unattributed %5.1f%% (self time of the lowest entry point reachable from outside)%s\n", 100*unattributed, flag)
	if lr.replayMismatches > 0 {
		fmt.Fprintf(w, "  WARNING: %d outside replays did not reproduce the program's answer; layer times above do not describe its work\n", lr.replayMismatches)
	}

	if len(lr.obsUS) == 0 {
		fmt.Fprintf(w, "repo's own spans: none on this call path (write-side and recovery phases are a later issue)\n")
		return
	}
	fmt.Fprintf(w, "repo's own spans vs harness spans, us per %s:\n", lr.def.Unit)
	for _, p := range ownVsHarness {
		own, outside := 0.0, 0.0
		for _, phase := range p.own {
			own += lr.obsUS[phase]
		}
		for _, n := range p.spans {
			outside += sum(lr.stats.self[n])
		}
		fmt.Fprintf(w, "  %-20s own %10.3f   harness %10.3f\n", p.label, own, outside/float64(lr.queries))
	}
}

package main

import (
	"fmt"
	"io"
)

// runSelfcheck runs the untraced suite twice with the same seed and prints,
// per workload and metric, how far the two runs disagree beside the bound.
// It reports false when an end-to-end metric disagrees beyond its bound, an
// exact counter differs at all, or any call failed.
func runSelfcheck(w io.Writer, cfg runConfig, defs []workloadDef) (bool, error) {
	ok := true
	for _, def := range defs {
		var runs [2]*result
		for i := range runs {
			r, err := runWorkload(cfg, def)
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w", def.Name, i+1, err)
			}
			runs[i] = r
		}
		fmt.Fprintf(w, "\n## %s\n", def.Name)
		a, b := runs[0].metrics(), runs[1].metrics()
		for _, d := range endToEnd {
			diff := relDiff(a[d.Name], b[d.Name])
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(w, "%-24s %14.4f %14.4f %-10s diff %6.2f%% bound %4.0f%%  %s\n",
				d.Name, a[d.Name], b[d.Name], d.Unit, 100*diff, 100*d.Bound, verdict)
		}
		for i, ct := range runs[0].counters {
			verdict := "ok"
			if other := runs[1].counters[i]; other != ct {
				verdict, ok = fmt.Sprintf("DIFFERS: %d", other.Value), false
			}
			fmt.Fprintf(w, "exact %-18s %14d  %s\n", ct.Name, ct.Value, verdict)
		}
		for i, r := range runs {
			if r.failed > 0 {
				fmt.Fprintf(w, "run %d: %d of %d calls failed\n", i+1, r.failed, r.attempted)
				ok = false
			}
		}
	}
	return ok, nil
}

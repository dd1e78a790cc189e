package bench

import (
	"context"
	"fmt"
	"sort"
)

// Experiment is a runnable table/figure reproduction.
type Experiment struct {
	ID          string
	Description string
	Run         func(context.Context, Scale) (*Table, error)
}

// Registry lists every experiment, keyed by the paper's table/figure id.
func Registry() []Experiment {
	return []Experiment{
		{"table2", "Dataset statistics (Table 2)", Table2},
		{"fig3a", "Query time vs dataset size, 4 systems (Fig. 3a)", Fig3a},
		{"fig3b", "Query time vs query size, 4 systems (Fig. 3b)", Fig3b},
		{"fig3c", "Query time vs record density, 4 systems (Fig. 3c)", Fig3c},
		{"fig4", "Disk space vs density, 4 systems (Fig. 4)", Fig4},
		{"fig5", "Query time vs edge-domain size (Fig. 5)", Fig5},
		{"fig6", "Graph-view benefit, uniform queries, NY (Fig. 6)", Fig6},
		{"fig7", "Aggregate-view benefit, uniform queries, GNU (Fig. 7)", Fig7},
		{"fig8", "Zipf workloads, relative time (Fig. 8)", Fig8},
		{"fig9", "Candidate views vs min-support (Fig. 9)", Fig9},
		{"fig10", "gIndex fragments vs graph views (Fig. 10)", Fig10},
		{"fig11", "gIndex fragments vs aggregate views (Fig. 11)", Fig11},
		{"extcluster", "Extension: workload-driven column clustering (§6.1)", ExtCluster},
		{"extmaint", "Extension: incremental view maintenance", ExtMaintenance},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(Registry()))
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

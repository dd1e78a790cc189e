// Package synth synthesizes ready-made grove datasets — the NY-road-like and
// Gnutella-like record collections of the paper's evaluation (§7.1) — so
// applications and examples can exercise the library without real trace
// data. Records are generated by random walks over a base network; query
// generators draw uniform or Zipf-skewed workloads from the same walk paths,
// so queries have non-trivial answers.
package synth

import (
	"fmt"

	"grove"
	"grove/internal/workload"
)

// Dataset is a synthesized record collection loaded into a grove Store,
// together with generators for matching query workloads.
type Dataset struct {
	Store *grove.Store

	spec workload.DatasetSpec
	gen  *workload.Generator
}

// Config controls dataset synthesis.
type Config struct {
	Records    int   // number of graph records (required)
	EdgeDomain int   // distinct edge ids (default 1000, the paper's default)
	MinEdges   int   // per-record minimum (default: family default)
	MaxEdges   int   // per-record maximum (default: family default)
	Seed       int64 // deterministic generation (default 1)
}

// NY builds an NY-road-like dataset (grid network, 35–100 edges/record).
func NY(cfg Config) (*Dataset, error) {
	if cfg.Records <= 0 {
		return nil, fmt.Errorf("synth: Records must be positive")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	spec := workload.NYSpec(cfg.Records, seed)
	return build(spec, cfg)
}

// GNU builds a Gnutella-like dataset (power-law network, 45–100
// edges/record).
func GNU(cfg Config) (*Dataset, error) {
	if cfg.Records <= 0 {
		return nil, fmt.Errorf("synth: Records must be positive")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	spec := workload.GNUSpec(cfg.Records, seed)
	return build(spec, cfg)
}

func build(spec workload.DatasetSpec, cfg Config) (*Dataset, error) {
	if cfg.EdgeDomain > 0 {
		spec.EdgeDomain = cfg.EdgeDomain
	}
	if cfg.MinEdges > 0 {
		spec.MinEdges = cfg.MinEdges
	}
	if cfg.MaxEdges > 0 {
		spec.MaxEdges = cfg.MaxEdges
	}
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	st := grove.Open()
	for _, rec := range ds.Records {
		st.Add(rec)
	}
	st.Optimize()
	return &Dataset{Store: st, spec: spec, gen: ds.Gen}, nil
}

// Describe returns the Table 2-style statistics line for the dataset.
func (d *Dataset) Describe() string {
	return fmt.Sprintf("%s-like: %d records, %d distinct edges, %d–%d edges/record",
		d.spec.Name, d.Store.NumRecords(), d.Store.Stats().DistinctEdges,
		d.spec.MinEdges, d.spec.MaxEdges)
}

// QueryPath draws one query path of up to nEdges edges from the walk pool
// that generated the records, returned as a node sequence.
func (d *Dataset) QueryPath(nEdges int) []string {
	return d.gen.QueryPath(nEdges)
}

// UniformQueries draws n query graphs of roughly nEdges edges each.
func (d *Dataset) UniformQueries(n, nEdges int) []*grove.Graph {
	return d.gen.UniformQueries(n, nEdges)
}

// UniformPathQueries draws n single-path query graphs sized in
// [minEdges, maxEdges] — the natural workload for path aggregation.
func (d *Dataset) UniformPathQueries(n, minEdges, maxEdges int) []*grove.Graph {
	return d.gen.UniformPathQueries(n, minEdges, maxEdges)
}

// ZipfQueries draws n queries Zipf-skewed over a pool of poolSize distinct
// queries (pathOnly restricts the pool to single paths).
func (d *Dataset) ZipfQueries(n, poolSize, nEdges int, pathOnly bool) []*grove.Graph {
	return d.gen.ZipfQueries(n, poolSize, nEdges, pathOnly)
}

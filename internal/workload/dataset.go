package workload

import (
	"fmt"

	"grove/internal/colstore"
	"grove/internal/graph"
)

// DatasetSpec describes one synthesized dataset in the shape of Table 2.
type DatasetSpec struct {
	Name        string
	EdgeDomain  int // distinct edge ids in the universe
	NumRecords  int
	MinEdges    int // min edges per record
	MaxEdges    int // max edges per record
	Seed        int64
	IsP2P       bool // GNU-like instead of NY-like
	PartitionW  int  // vertical partition width (0 = default 1000)
	KeepRecords bool // retain the generated records (baseline loading, tests)
}

// NYSpec returns the NY-like dataset spec scaled to numRecords (paper
// defaults: 1000-edge domain, 35–100 edges per record).
func NYSpec(numRecords int, seed int64) DatasetSpec {
	return DatasetSpec{
		Name: "NY", EdgeDomain: 1000, NumRecords: numRecords,
		MinEdges: 35, MaxEdges: 100, Seed: seed,
	}
}

// GNUSpec returns the GNU-like dataset spec (45–100 edges per record).
func GNUSpec(numRecords int, seed int64) DatasetSpec {
	return DatasetSpec{
		Name: "GNU", EdgeDomain: 1000, NumRecords: numRecords,
		MinEdges: 45, MaxEdges: 100, Seed: seed, IsP2P: true,
	}
}

// DatasetStats summarizes a built dataset — the rows of Table 2.
type DatasetStats struct {
	Name           string
	NumRecords     int
	TotalMeasures  int64
	SizeBytes      int64
	DistinctEdges  int
	MinEdgesPerRec int
	MaxEdgesPerRec int
	AvgEdgesPerRec float64
}

func (s DatasetStats) String() string {
	return fmt.Sprintf("%s: records=%d measures=%d size=%dB distinctEdges=%d edges/rec min=%d max=%d avg=%.1f",
		s.Name, s.NumRecords, s.TotalMeasures, s.SizeBytes, s.DistinctEdges,
		s.MinEdgesPerRec, s.MaxEdgesPerRec, s.AvgEdgesPerRec)
}

// Dataset is a built dataset: the master relation, its registry, the
// generator (for drawing query workloads over the same walk pool), and
// optionally the raw records for loading into baseline systems.
type Dataset struct {
	Spec    DatasetSpec
	Rel     *colstore.Relation
	Reg     *graph.Registry
	Gen     *Generator
	Stats   DatasetStats
	Records []*graph.Record // nil unless Spec.KeepRecords
}

// Build synthesizes the dataset described by spec.
func Build(spec DatasetSpec) (*Dataset, error) {
	var net *Network
	if spec.IsP2P {
		net = NewP2PNetwork(spec.EdgeDomain, spec.Seed)
	} else {
		net = NewRoadNetwork(spec.EdgeDomain)
	}
	gen, err := NewGenerator(net, spec.MinEdges, spec.MaxEdges, spec.Seed)
	if err != nil {
		return nil, err
	}
	rel := colstore.NewRelation(spec.PartitionW)
	reg := graph.NewRegistry()
	ds := &Dataset{Spec: spec, Rel: rel, Reg: reg, Gen: gen}

	minE, maxE, sumE := int(^uint(0)>>1), 0, 0
	for i := 0; i < spec.NumRecords; i++ {
		rec, err := gen.NextRecord()
		if err != nil {
			return nil, fmt.Errorf("workload: record %d: %w", i, err)
		}
		graph.LoadRecord(rel, reg, rec)
		if spec.KeepRecords {
			ds.Records = append(ds.Records, rec)
		}
		n := rec.NumElements()
		if n < minE {
			minE = n
		}
		if n > maxE {
			maxE = n
		}
		sumE += n
	}
	rel.Optimize()
	ds.Stats = DatasetStats{
		Name:           spec.Name,
		NumRecords:     rel.NumRecords(),
		TotalMeasures:  rel.TotalMeasures(),
		SizeBytes:      rel.SizeBytes(),
		DistinctEdges:  reg.Len(),
		MinEdgesPerRec: minE,
		MaxEdgesPerRec: maxE,
		AvgEdgesPerRec: float64(sumE) / float64(maxInt(1, spec.NumRecords)),
	}
	return ds, nil
}

// BuildDense synthesizes a density-controlled dataset for the Fig. 3(c) and
// Fig. 4 experiments: every record contains density×edgeDomain edges.
func BuildDense(name string, edgeDomain, numRecords int, density float64, seed int64, keep bool) (*Dataset, error) {
	edges := int(density * float64(edgeDomain))
	if edges < 1 {
		return nil, fmt.Errorf("workload: density %v too low for domain %d", density, edgeDomain)
	}
	spec := DatasetSpec{
		Name: name, EdgeDomain: edgeDomain, NumRecords: numRecords,
		MinEdges: edges, MaxEdges: edges, Seed: seed, KeepRecords: keep,
	}
	return Build(spec)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

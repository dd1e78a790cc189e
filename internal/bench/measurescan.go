package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"grove/internal/agg"
	"grove/internal/colstore"
)

// ExpMeasureScan measures the vectorized measure path (GatherInto and the
// fused AggregateInto) against the scalar per-record reference (one
// Get — container binary search plus prefix popcount — per answer record)
// across answer-set selectivities. The crossover it shows motivates the
// 4/5-coverage hybrid threshold inside GatherInto: batch-rank wins on sparse
// answers, the block-decoded merge on near-full ones. Every variant's fold is
// checked bit-for-bit against the scalar sum before any timing is reported.
func ExpMeasureScan(ctx context.Context, sc Scale) (*Table, error) {
	numRecords := sc.NYRecords * 4
	if numRecords <= 0 {
		numRecords = 100000
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	col := colstore.NewMeasureColumn()
	for rec := 0; rec < numRecords; rec++ {
		if rng.Float64() < 0.9 { // 10% NULLs, as measure columns have
			col.Set(uint32(rec), 1+rng.Float64()*9)
		}
	}
	reduce := agg.KernelFor(agg.Sum).Reduce

	t := &Table{
		Title: fmt.Sprintf("Measure scan: scalar Get vs vectorized kernels, %d-record column",
			numRecords),
		Columns: []string{"Selectivity", "Answer recs", "Scalar (ns/rec)",
			"Gather (ns/rec)", "Fused (ns/rec)", "Gather speedup", "Fused speedup"},
	}

	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		var recs []uint32
		for rec := 0; rec < numRecords; rec++ {
			if rng.Float64() < sel {
				recs = append(recs, uint32(rec))
			}
		}
		if len(recs) == 0 {
			continue
		}
		reps := 1 + 2_000_000/len(recs)

		scalarSum := 0.0
		scalarNS := timePerRec(reps, len(recs), func() {
			s := 0.0
			for _, rec := range recs {
				if v, ok := col.Get(rec); ok {
					s += v
				}
			}
			scalarSum = s
		})

		values := make([]float64, len(recs))
		present := make([]bool, len(recs))
		gatherSum := 0.0
		gatherNS := timePerRec(reps, len(recs), func() {
			col.GatherInto(recs, values, present)
			s := 0.0
			for i, p := range present {
				if p {
					s += values[i]
				}
			}
			gatherSum = s
		})

		fusedSum := 0.0
		fusedNS := timePerRec(reps, len(recs), func() {
			fusedSum, _ = col.AggregateInto(recs, 0, reduce)
		})

		if math.Float64bits(gatherSum) != math.Float64bits(scalarSum) ||
			math.Float64bits(fusedSum) != math.Float64bits(scalarSum) {
			return nil, fmt.Errorf("bench: measurescan folds diverge at selectivity %g: scalar %v gather %v fused %v",
				sel, scalarSum, gatherSum, fusedSum)
		}

		t.AddRow(fmt.Sprintf("%.1f%%", sel*100), fmt.Sprintf("%d", len(recs)),
			fmt.Sprintf("%.1f", scalarNS), fmt.Sprintf("%.1f", gatherNS),
			fmt.Sprintf("%.1f", fusedNS),
			fmt.Sprintf("%.2fx", scalarNS/gatherNS), fmt.Sprintf("%.2fx", scalarNS/fusedNS))
	}
	t.AddNote("scalar = per-record Get (binary search + prefix popcount); gather = GatherInto then sum; fused = AggregateInto")
	t.AddNote("GatherInto switches from batch-rank to merge once the answer covers 4/5 of the column")
	return t, nil
}

// timePerRec runs f reps times and returns nanoseconds per answer record.
func timePerRec(reps, numRecs int, f func()) float64 {
	f() // warm caches off the clock
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps) / float64(numRecs)
}

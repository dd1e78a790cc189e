package bench

import (
	"context"
	"testing"
)

// TestObsOverheadSmoke is the bench-smoke guard on the tracing budget: on the
// sequential uniform-graph workload, metrics plus full lifecycle tracing must
// stay near the <5% EXPERIMENTS.md expectation (~3% measured at full scale by
// `-exp obs`). The gate budget is 10%, not 5: even interleaved best-of
// measurement leaves ±5–7% residual noise on a contended CI box, and a 5%
// line two points above the ~3% truth trips on noise alone. 10% keeps the
// tripwire well clear of noise while still catching the regression class it
// guards — e.g. losing the query-string cache re-measures at +9–18%. The
// guard also re-measures up to three times and fails only when every attempt
// exceeds the budget.
func TestObsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard, skipped with -short")
	}
	// Large enough that a workload pass takes tens of milliseconds — at
	// single-digit-millisecond passes the container's scheduler noise (±8%,
	// EXPERIMENTS.md) swamps a 5% budget even under best-of measurement.
	sc := DefaultScale()
	sc.NYRecords = 8000
	sc.NumQueries = 80
	eng, queries, err := batchBenchQueries(sc)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 0.10
	const attempts = 3
	best := 0.0
	for i := 0; i < attempts; i++ {
		off, _, tracing, err := obsOverheadDurations(context.Background(), eng, queries)
		if err != nil {
			t.Fatal(err)
		}
		overhead := float64(tracing)/float64(off) - 1
		if i == 0 || overhead < best {
			best = overhead
		}
		if best < budget {
			t.Logf("tracing overhead %+.2f%% (attempt %d, budget %+.0f%%)", overhead*100, i+1, budget*100)
			return
		}
		t.Logf("tracing overhead %+.2f%% over budget on attempt %d, re-measuring", overhead*100, i+1)
	}
	t.Errorf("tracing overhead %+.2f%% exceeded the %+.0f%% budget on all %d attempts",
		best*100, budget*100, attempts)
}

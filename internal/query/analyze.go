package query

import (
	"context"
	"fmt"
	"strings"

	"grove/internal/bitmap"
	"grove/internal/obs"
)

// ExplainAnalysis merges a query's predicted plan (Explanation) with the
// lifecycle trace of one real execution: per-phase wall time and the I/O the
// column store actually performed. Executed single-threaded — as
// ExplainAnalyze runs it — the observed I/O deltas are exact, so
// Trace.IO.BitmapColumnsFetched equals Plan.BitmapsFetched on a single
// shard, and on a sharded store the root trace's I/O equals the sum over
// Trace.Children (one child per shard, each fetching the plan's columns
// against its own slice of the records).
type ExplainAnalysis struct {
	Plan    Explanation
	Trace   obs.Trace
	Records int

	// Answer is the analyzed execution's record-id set — what differential
	// tests compare bit-for-bit across shard counts.
	Answer *bitmap.Bitmap
}

// String renders the plan followed by the observed per-phase breakdown, in
// the spirit of SQL EXPLAIN ANALYZE. For a scatter-gathered execution the
// coordinator phases are followed by one summary line per shard child.
func (a *ExplainAnalysis) String() string {
	var b strings.Builder
	b.WriteString(a.Plan.String())
	fmt.Fprintf(&b, "observed: %v total, %d bitmap fetch(es), %d measure column(s), %d value(s) scanned, %d record(s)\n",
		a.Trace.Duration(), a.Trace.IO.BitmapColumnsFetched,
		a.Trace.IO.MeasureColumnsFetched, a.Trace.IO.MeasuresScanned, a.Records)
	for _, s := range a.Trace.PhaseTotals() {
		fmt.Fprintf(&b, "  %-12s %12v  bitmaps=%d measures=%d bytes=%d\n",
			s.Phase, s.Duration(), s.IO.BitmapColumnsFetched,
			s.IO.MeasureColumnsFetched, s.IO.BytesRead)
	}
	for _, c := range a.Trace.Children {
		fmt.Fprintf(&b, "  shard %-6d %12v  bitmaps=%d measures=%d bytes=%d records=%d\n",
			c.Shard, c.Duration(), c.IO.BitmapColumnsFetched,
			c.IO.MeasureColumnsFetched, c.IO.BytesRead, c.IO.RecordsReturned)
	}
	return b.String()
}

// ExplainAnalyze computes a graph query's plan and then executes the query
// once with tracing forced on, returning plan and observation together. The
// run bypasses the serving metrics and trace ring, so diagnostics don't
// distort production counters.
func (e *Engine) ExplainAnalyze(ctx context.Context, q *GraphQuery) (*ExplainAnalysis, error) {
	plan, err := e.Explain(q)
	if err != nil {
		return nil, err
	}
	run := e.Clone()
	run.metrics = nil
	ring := obs.NewTraceRing(1)
	run.traces = ring
	res, err := run.ExecuteGraphQueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return &ExplainAnalysis{Plan: plan, Trace: ring.Recent()[0],
		Records: res.NumRecords(), Answer: res.Answer}, nil
}

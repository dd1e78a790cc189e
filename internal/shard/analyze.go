package shard

import (
	"context"

	"grove/internal/bitmap"
	"grove/internal/obs"
	"grove/internal/query"
)

// ExplainAnalyze computes a graph query's plan and executes it once per shard
// with tracing forced on, returning the plan together with a hierarchical
// observation: the root trace covers the whole scatter-gather (fan-out and
// merge phases, coordinator-level I/O totals) and carries one child trace per
// shard with that shard's exact per-phase I/O.
//
// Shards run sequentially on the caller's goroutine — like the single-shard
// ExplainAnalyze, the point is exact attribution, not representative latency —
// so the observed I/O deltas are exact: the root's fetch counts equal the sum
// over the children, and each child's bitmap fetches equal the plan's
// BitmapsFetched against that shard's slice of the records. The per-shard runs
// bypass serving metrics and the trace ring (see Engine.ExplainAnalyze).
func (c *Coordinator) ExplainAnalyze(ctx context.Context, q *query.GraphQuery) (*query.ExplainAnalysis, error) {
	if len(c.units) == 1 {
		u := c.units[0]
		u.pending.Add(1)
		defer u.pending.Add(-1)
		return u.Eng.ExplainAnalyze(ctx, q)
	}
	// Shards share the schema and views, so shard 0's plan represents all.
	plan, err := c.units[0].Eng.Explain(q)
	if err != nil {
		return nil, err
	}
	root := obs.StartTrace(obs.KindGraph, q.String(), obs.PhaseFanOut, c.IOStats())
	root.SetShard(obs.ShardCoordinator)
	children := make([]obs.Trace, len(c.units))
	answers := make([]*bitmap.Bitmap, len(c.units))
	records := 0
	for s, u := range c.units {
		u.pending.Add(1)
		a, err := u.Eng.ExplainAnalyze(ctx, q)
		u.pending.Add(-1)
		if err != nil {
			return nil, err
		}
		children[s] = a.Trace
		answers[s] = a.Answer
		records += a.Records
	}
	root.Begin(obs.PhaseMerge, c.IOStats()) // closes the fan-out span
	for _, ch := range children {
		root.AddChild(ch)
	}
	merged := c.mergeBitmaps(answers)
	return &query.ExplainAnalysis{
		Plan:    plan,
		Trace:   root.Finish(c.IOStats()),
		Records: records,
		Answer:  merged,
	}, nil
}

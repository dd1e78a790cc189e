package query

import (
	"context"
	"sync"
	"testing"

	"grove/internal/colstore"
	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/obs"
)

// traceCostOps are one of each engine entry point over the Fig. 2 fixture,
// with a graph view and an aggregate view in reach so view fetches are
// charged too.
func traceCostOps(t *testing.T, f *fixture) map[string]func(e *Engine) error {
	t.Helper()
	e2, _ := f.reg.Lookup(graph.E("A", "C"))
	e3, _ := f.reg.Lookup(graph.E("C", "E"))
	if _, err := f.rel.MaterializeView("v23", []colstore.EdgeID{e2, e3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rel.MaterializeAggView("p23", []colstore.EdgeID{e2, e3}, Sum); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := gpath.Closed("A", "C", "E", "F")
	return map[string]func(e *Engine) error{
		"graph": func(e *Engine) error {
			_, err := e.ExecuteGraphQueryContext(ctx, pathQuery("A", "C", "E", "F"))
			return err
		},
		"expr": func(e *Engine) error {
			_, err := evalExpr(ctx, e, Or{Operands: []Expr{
				Leaf{Q: pathQuery("A", "C", "E")}, Leaf{Q: pathQuery("A", "D", "E")}}})
			return err
		},
		"pathagg": func(e *Engine) error {
			_, err := e.ExecutePathAggQueryContext(ctx, NewPathAggQueryAlong(path, Sum, ""))
			return err
		},
		"scalar": func(e *Engine) error {
			_, err := scalarAgg(ctx, e, NewPathAggQueryAlong(path, Max, ""))
			return err
		},
		"statement": func(e *Engine) error {
			st, err := Parse("SUM [A,C,E,F]")
			if err != nil {
				return err
			}
			_, err = e.Execute(ctx, st)
			return err
		},
	}
}

// TestTracedOperationsChargeTheTrackerAlike: a traced operation counts its
// I/O in its own record and charges the relation's tracker once, at the end.
// The tracker must move exactly as it does for the same operation untraced,
// and the trace's I/O must equal that movement.
func TestTracedOperationsChargeTheTrackerAlike(t *testing.T) {
	f := newFig2Fixture(t)
	for name, op := range traceCostOps(t, f) {
		before := f.rel.Tracker().Snapshot()
		if err := op(f.eng); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		untraced := f.rel.Tracker().Snapshot().Sub(before)
		if untraced.ColumnsFetched() == 0 {
			t.Fatalf("%s: fetched nothing", name)
		}

		traced := f.eng.Clone()
		ring := obs.NewTraceRing(1)
		traced.SetTraces(ring)
		before = f.rel.Tracker().Snapshot()
		if err := op(traced); err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if got := f.rel.Tracker().Snapshot().Sub(before); got != untraced {
			t.Errorf("%s: traced run charged %+v, untraced %+v", name, got, untraced)
		}
		tr := ring.Recent()[0]
		if tr.IO != untraced {
			t.Errorf("%s: trace I/O %+v, tracker moved %+v", name, tr.IO, untraced)
		}
		var spans obs.IODelta
		for _, s := range tr.Spans {
			spans = spans.Add(s.IO)
		}
		if spans != tr.IO {
			t.Errorf("%s: spans sum to %+v, trace total %+v", name, spans, tr.IO)
		}
	}
}

// TestTraceIOExactUnderConcurrency: traces of queries running at once each
// carry their own query's I/O, not the store's I/O over their lifetimes.
func TestTraceIOExactUnderConcurrency(t *testing.T) {
	f := newFig2Fixture(t)
	q := pathQuery("A", "C", "E", "F")
	before := f.rel.Tracker().Snapshot()
	if _, err := f.eng.ExecuteGraphQueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	one := f.rel.Tracker().Snapshot().Sub(before)

	const workers, each = 4, 50
	ring := obs.NewTraceRing(workers * each)
	traced := f.eng.Clone()
	traced.SetTraces(ring)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := traced.ExecuteGraphQueryContext(context.Background(), q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, tr := range ring.Recent() {
		if tr.IO != one {
			t.Fatalf("trace %d I/O %+v, one query's is %+v", i, tr.IO, one)
		}
	}
}

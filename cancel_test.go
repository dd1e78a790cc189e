package grove

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestStoreContextCancelled: Execute refuses an already-cancelled context
// with context.Canceled, for statements of every kind.
func TestStoreContextCancelled(t *testing.T) {
	st := buildSCMStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := PathOf("A", "D", "E").ToGraph()
	for _, stmt := range []Statement{
		Find(Q(g)),
		Find(AndNot(Q(g), QPath("C", "H"))),
		AggregateOn(g, Sum, ""),
		Scalar(AggregateOn(g, Max, "")),
	} {
		if _, err := st.Execute(ctx, stmt); !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute(%s) err = %v, want context.Canceled", stmt, err)
		}
	}
	// A fresh context still works after the cancelled attempts.
	if _, err := st.Execute(context.Background(), Find(Q(g))); err != nil {
		t.Fatalf("Execute after cancellation = %v", err)
	}
}

// TestStoreExecuteBatchContextCancelled: an already-cancelled context fails
// every pending statement of the batch promptly with context.Canceled.
func TestStoreExecuteBatchContextCancelled(t *testing.T) {
	st := buildSCMStore(t)
	stmts := make([]Statement, 20)
	for i := range stmts {
		stmts[i] = Find(QPath("A", "D", "E"))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results, errs := st.ExecuteStatements(ctx, stmts, 4)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
	if len(errs) != len(stmts) {
		t.Fatalf("%d error slots, want %d", len(errs), len(stmts))
	}
	for i := range stmts {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("query %d err = %v, want context.Canceled", i, errs[i])
		}
		if results[i] != nil {
			t.Fatalf("query %d has a result despite cancellation", i)
		}
	}
}

// TestStoreBatchPanicIsolated: one panicking query surfaces as that query's
// error while the rest of the batch completes, and the store stays usable.
func TestStoreBatchPanicIsolated(t *testing.T) {
	st := buildSCMStore(t)
	panicky := AggFunc{
		Name:     "BOOM",
		Identity: 0,
		Lift:     func(v float64) float64 { return v },
		Fold:     func(a, b float64) float64 { panic("kernel exploded") },
	}
	g := PathOf("A", "D", "E").ToGraph()
	stmts := make([]Statement, 8)
	for i := range stmts {
		stmts[i] = AggregateOn(g, Sum, "")
	}
	stmts[3] = AggregateOn(g, panicky, "")
	results, errs := st.ExecuteStatements(context.Background(), stmts, 4)
	for i := range stmts {
		if i == 3 {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "panicked") {
				t.Fatalf("panicking query err = %v, want recovered panic", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("query %d err = %v beside a recovered panic", i, errs[i])
		}
		if results[i] == nil || results[i].Agg == nil {
			t.Fatalf("query %d missing result", i)
		}
	}
	// The recovered panic must not have leaked a read lock: writes proceed.
	done := make(chan struct{})
	go func() {
		rec := NewRecord()
		if err := rec.SetEdge("A", "D", 1); err == nil {
			st.Add(rec)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked after recovered panic: read lock leaked")
	}
}

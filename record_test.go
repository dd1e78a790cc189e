package grove

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// loadRecordingStore loads the loadSCMOrders records plus one order that
// also carries a named "cost" measure.
func loadRecordingStore(t *testing.T, st *Store) {
	t.Helper()
	loadSCMOrders(t, st)
	rec := NewRecord()
	for i, leg := range [][2]string{{"A", "D"}, {"D", "E"}, {"E", "G"}} {
		if err := rec.SetEdge(leg[0], leg[1], float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := rec.SetEdgeNamed(leg[0], leg[1], "cost", float64(10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	st.Add(rec)
}

// TestWorkloadRecordReplayRoundTrip is the recorder acceptance criterion: a
// workload of every query form, captured on a single-shard store, replays
// against stores of one to four shards with every event but the failed one
// re-executed and its digest verified — sharding must not change a single
// answer bit, and no recorded query is left out.
func TestWorkloadRecordReplayRoundTrip(t *testing.T) {
	src := Open()
	loadRecordingStore(t, src)
	path := t.TempDir() + "/workload.jsonl"

	stop, err := src.RecordWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.RecordWorkload(path); err == nil {
		t.Fatal("second RecordWorkload accepted")
	}

	ctx := context.Background()
	branching := NewGraph()
	branching.AddEdge("A", "B")
	branching.AddEdge("B", "F")
	branching.AddEdge("C", "H")
	branching.AddNode("K")
	if _, err := src.Match(PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Aggregate(PathOf("A", "D", "E").ToGraph(), Sum); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Match(branching); err != nil {
		t.Fatal(err)
	}
	stmts := []Statement{
		AggregateOn(PathOf("A", "D", "E", "G").ToGraph(), Sum, "cost"), // named measure
		AggregateAlong(Min, OpenPath("A", "D", "E"), ""),               // open explicit path
		Scalar(AggregateOn(PathOf("A", "D", "E").ToGraph(), Sum, "")),  // scalar, row fold
		Scalar(AggregateAlong(Max, Path{Nodes: []string{"A", "D", "E"}, OpenEnd: true}, "")),
		AggregateOn(branching, Count, ""),                                // branching graph
		Find(AndNot(Or(QPath("C", "H"), Q(branching)), QPath("E", "G"))), // boolean expression
	}
	for _, st := range stmts {
		if _, err := src.Execute(ctx, st); err != nil {
			t.Fatalf("%s: %v", st, err)
		}
	}
	// A statement batch with one failing statement: a one-node explicit path.
	batch := []Statement{
		Find(QPath("A", "B", "F")),
		AggregateAlong(Sum, Path{Nodes: []string{"A"}}, ""),
		AggregateOn(PathOf("C", "H", "K").ToGraph(), Max, ""),
	}
	_, errs := src.ExecuteStatements(ctx, batch, 2)
	if errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("batch errors = %v, want only slot 1 to fail", errs)
	}
	if _, err := src.AggregateBatch([]*Graph{PathOf("A", "D").ToGraph(), PathOf("C", "H").ToGraph()}, Sum, 2); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if _, err := src.Match(PathOf("A", "D").ToGraph()); err != nil { // not recorded
		t.Fatal(err)
	}

	events, err := ReadWorkloadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	// 3 + 6 statements + a batch of 3 + an aggregate batch of 2, then the
	// final views snapshot.
	const queries = 14
	if len(events) != queries+1 {
		t.Fatalf("events = %d, want %d", len(events), queries+1)
	}
	if last := events[queries]; last.Type != "views" {
		t.Fatalf("last event = %+v, want a view-usage snapshot", last)
	}
	for i, ev := range events[:queries] {
		if ev.Type != "query" || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if failed := i == 10; failed != (ev.Error != "") || failed == (ev.Digest != "") {
			t.Errorf("event %d = %+v: only event 10 fails, and only successes carry a digest", i, ev)
		}
		if _, err := Parse(ev.Text); err != nil && ev.Error == "" {
			t.Errorf("event %d text %q does not parse: %v", i, ev.Text, err)
		}
	}
	if want := stmts[1].String(); events[4].Text != want || !strings.Contains(want, "ALONG (A,D,E)") {
		t.Errorf("open-path event text = %q, want %q", events[4].Text, want)
	}

	// Replay against the recording's shard count and three others: every
	// event but the failed one re-executes and digests identically.
	for _, shards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dst := NewSharded(shards)
			loadRecordingStore(t, dst)
			stats, err := dst.ReplayWorkload(ctx, events)
			if err != nil {
				t.Fatal(err)
			}
			want := ReplayStats{Queries: queries, Replayed: queries - 1, Skipped: 1, Verified: queries - 1}
			if stats != want {
				t.Errorf("stats = %+v, want %+v", stats, want)
			}
		})
	}
}

// TestReplayDigestMismatchDetected proves verification has teeth: replaying
// against a store with different contents flags the divergence instead of
// silently passing.
func TestReplayDigestMismatchDetected(t *testing.T) {
	src := Open()
	loadSCMOrders(t, src)
	path := t.TempDir() + "/workload.jsonl"
	stop, err := src.RecordWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Match(PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadWorkloadLog(path)
	if err != nil {
		t.Fatal(err)
	}

	dst := Open()
	loadSCMOrders(t, dst)
	extra := NewRecord()
	if err := extra.SetEdge("A", "D", 1); err != nil {
		t.Fatal(err)
	}
	if err := extra.SetEdge("D", "E", 1); err != nil {
		t.Fatal(err)
	}
	dst.Add(extra)

	stats, err := dst.ReplayWorkload(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 1 || stats.Mismatched != 1 || stats.Verified != 0 {
		t.Errorf("stats = %+v, want the diverging answer flagged", stats)
	}
}

// TestReplayEventNotReplayable pins which events replay refuses: those that
// are not queries, such as view-usage snapshots.
func TestReplayEventNotReplayable(t *testing.T) {
	st := Open()
	loadSCMOrders(t, st)
	for _, ev := range []WorkloadEvent{
		{Type: "views"},
		{Type: "views", Text: "[C,H]"},
	} {
		if _, err := st.replayEvent(context.Background(), ev); !errors.Is(err, ErrNotReplayable) {
			t.Errorf("replayEvent(%+v) = %v, want ErrNotReplayable", ev, err)
		}
	}
}

// TestReplayUnparseableEventFails: a query event whose text does not parse
// fails the replay, and the error names the event.
func TestReplayUnparseableEventFails(t *testing.T) {
	st := Open()
	loadSCMOrders(t, st)
	events := []WorkloadEvent{
		{Type: "query", Seq: 1, Text: "{[A,D] [D,E]}", Digest: "x"},
		{Type: "query", Seq: 2, Text: "Gq{(A,D) (D,E)}", Digest: "y"},
	}
	stats, err := st.ReplayWorkload(context.Background(), events)
	if err == nil || !strings.Contains(err.Error(), "event 1 (seq 2)") || !strings.Contains(err.Error(), "Gq{(A,D) (D,E)}") {
		t.Fatalf("replay err = %v, want one naming event 1 (seq 2) and its text", err)
	}
	if stats.Replayed != 1 || stats.Mismatched != 1 {
		t.Errorf("stats = %+v, want the first event replayed (against a made-up digest)", stats)
	}
}

package grove

import (
	"errors"
	"fmt"
	"testing"
)

// TestWorkloadRecordReplayRoundTrip is the recorder acceptance criterion: a
// workload captured on a single-shard store replays against stores of one to
// four shards with every digest verified — sharding must not change a single
// answer bit.
func TestWorkloadRecordReplayRoundTrip(t *testing.T) {
	src := Open()
	loadSCMOrders(t, src)
	path := t.TempDir() + "/workload.jsonl"

	if src.RecordingActive() {
		t.Fatal("recorder active before start")
	}
	if err := src.StartWorkloadRecording(path); err != nil {
		t.Fatal(err)
	}
	if !src.RecordingActive() {
		t.Fatal("recorder not active after start")
	}
	if err := src.StartWorkloadRecording(path); err == nil {
		t.Fatal("second StartWorkloadRecording accepted")
	}

	// A mixed workload: graph match, path aggregations (default and explicit
	// path), statements, a batch, a boolean expression, and a parse failure.
	if _, err := src.Match(PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Aggregate(PathOf("A", "D", "E").ToGraph(), Sum); err != nil {
		t.Fatal(err)
	}
	if _, err := src.AggregateAlong(Min, PathOf("A", "D", "E"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Query("[A,D,E] AND NOT [A,B]"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Query("SUM [A,D,E,G,I]"); err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{PathOf("A", "B", "F").ToGraph(), PathOf("C", "H", "K").ToGraph()}
	if _, err := src.ExecuteBatch(graphs, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Eval(AndNot(QPath("C", "H"), QPath("E", "G"))); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Query("]["); err == nil {
		t.Fatal("malformed statement accepted")
	}
	if err := src.StopWorkloadRecording(); err != nil {
		t.Fatal(err)
	}
	if src.RecordingActive() {
		t.Fatal("recorder still active after stop")
	}

	events, err := ReadWorkloadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	// 8 successful queries + 1 failed statement + the final views snapshot.
	if len(events) != 10 {
		t.Fatalf("events = %d, want 10", len(events))
	}
	if last := events[len(events)-1]; last.Type != "views" {
		t.Fatalf("last event = %+v, want a view-usage snapshot", last)
	}
	var kinds []string
	for i, ev := range events[:9] {
		if ev.Type != "query" {
			t.Fatalf("event %d type = %q", i, ev.Type)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if ev.Error == "" && ev.Digest == "" {
			t.Errorf("successful event %d carries no digest: %+v", i, ev)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"graph", "pathagg", "pathagg", "statement", "statement", "graph", "graph", "expr", "statement"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if !events[3].Statement || events[3].Text != "[A,D,E] AND NOT [A,B]" {
		t.Errorf("statement event = %+v", events[3])
	}
	if failed := events[8]; failed.Error == "" || failed.Digest != "" {
		t.Errorf("failed event = %+v, want error recorded and digest cleared", failed)
	}
	if len(events[2].Paths) != 1 || len(events[2].Paths[0].Nodes) != 3 {
		t.Errorf("explicit-path event lost its paths: %+v", events[2])
	}

	// Replay against the recording's shard count and three others: answers
	// must digest identically.
	for _, shards := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dst := NewSharded(shards)
			loadSCMOrders(t, dst)
			stats, err := dst.ReplayWorkload(events)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Queries != 9 {
				t.Errorf("query events = %d, want 9", stats.Queries)
			}
			// The failed statement and the non-replayable expression are skipped.
			if stats.Skipped != 2 {
				t.Errorf("skipped = %d, want 2", stats.Skipped)
			}
			if stats.Replayed != 7 || stats.Verified != stats.Replayed {
				t.Errorf("replayed %d verified %d, want 7/7", stats.Replayed, stats.Verified)
			}
			if stats.Mismatched != 0 {
				t.Errorf("mismatched = %d — sharded answers must be bit-identical", stats.Mismatched)
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
	if err := src.StartWorkloadRecording(path); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Match(PathOf("A", "D", "E").ToGraph()); err != nil {
		t.Fatal(err)
	}
	if err := src.StopWorkloadRecording(); err != nil {
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

	stats, err := dst.ReplayWorkload(events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 1 || stats.Mismatched != 1 || stats.Verified != 0 {
		t.Errorf("stats = %+v, want the diverging answer flagged", stats)
	}
}

// TestReplayEventNotReplayable pins which events replay refuses: snapshots
// and programmatic boolean expressions.
func TestReplayEventNotReplayable(t *testing.T) {
	st := Open()
	loadSCMOrders(t, st)
	for _, ev := range []WorkloadEvent{
		{Type: "views"},
		{Type: "query", Kind: "expr", Text: "([C,H] AND [E,G])"},
	} {
		if _, err := st.replayEvent(ev); !errors.Is(err, ErrNotReplayable) {
			t.Errorf("replayEvent(%+v) = %v, want ErrNotReplayable", ev, err)
		}
	}
	// StopWorkloadRecording with no recorder attached is a no-op.
	if err := st.StopWorkloadRecording(); err != nil {
		t.Fatal(err)
	}
}

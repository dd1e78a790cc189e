package obs

import (
	"os"
	"strings"
	"testing"

	"grove/internal/fsio"
)

func TestWorkloadRecorderRoundTrip(t *testing.T) {
	path := t.TempDir() + "/w.jsonl"
	r, err := NewWorkloadRecorder(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	evs := []WorkloadEvent{
		{Type: EventQuery, Text: "{[A,D]}", Digest: "abc"},
		{Type: EventQuery, Text: "SUM<cost> {[A,D] [D,E]} ALONG [A,D,E)", Error: "boom"},
		{Type: EventViews, ViewUsage: map[string]int64{"vADE": 3}},
	}
	for _, ev := range evs {
		if err := r.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is a no-op; recording after close errors.
	if err := r.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := r.Record(WorkloadEvent{Type: EventQuery}); err == nil {
		t.Fatal("record after close accepted")
	}

	got, err := ReadWorkload(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d events", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if ev.UnixNanos == 0 {
			t.Errorf("event %d missing timestamp", i)
		}
	}
	if got[0].Text != "{[A,D]}" || got[0].Digest != "abc" {
		t.Errorf("event 0 = %+v", got[0])
	}
	if got[1].Text != evs[1].Text || got[1].Error != "boom" {
		t.Errorf("event 1 = %+v", got[1])
	}
	if got[2].Type != EventViews || got[2].ViewUsage["vADE"] != 3 {
		t.Errorf("event 2 = %+v", got[2])
	}
}

func TestReadWorkloadTolerantAndStrict(t *testing.T) {
	dir := t.TempDir()
	// Blank lines are tolerated (a crash can leave a trailing newline).
	ok := dir + "/ok.jsonl"
	if err := os.WriteFile(ok, []byte(`{"type":"query","seq":1}`+"\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadWorkload(fsio.OS(), ok)
	if err != nil || len(evs) != 1 {
		t.Fatalf("events = %d, err = %v", len(evs), err)
	}
	// Malformed JSON is an error naming the line.
	bad := dir + "/bad.jsonl"
	if err := os.WriteFile(bad, []byte(`{"type":"query"}`+"\n{oops}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWorkload(fsio.OS(), bad); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad line error = %v", err)
	}
	if _, err := ReadWorkload(fsio.OS(), dir+"/missing.jsonl"); err == nil {
		t.Fatal("missing file accepted")
	}
}

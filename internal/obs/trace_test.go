package obs

import (
	"encoding/json"
	"testing"
)

func TestActiveTraceSpans(t *testing.T) {
	io := IODelta{}
	tr := StartTrace(KindGraph, "[A,B]", io)
	io.BitmapColumnsFetched = 2
	tr.Begin(PhasePlan, io)
	io.BitmapColumnsFetched = 5
	io.BytesRead = 100
	tr.Begin(PhaseFetch, io)
	io.BitmapColumnsFetched = 7
	io.BytesRead = 300
	trace := tr.Finish(io)

	if trace.Kind != KindGraph || trace.Query != "[A,B]" {
		t.Errorf("trace header = %+v", trace)
	}
	if len(trace.Spans) != 2 {
		t.Fatalf("spans = %d", len(trace.Spans))
	}
	if trace.Spans[0].Phase != PhasePlan || trace.Spans[0].IO.BitmapColumnsFetched != 3 {
		t.Errorf("plan span = %+v", trace.Spans[0])
	}
	if trace.Spans[1].Phase != PhaseFetch || trace.Spans[1].IO.BitmapColumnsFetched != 2 ||
		trace.Spans[1].IO.BytesRead != 200 {
		t.Errorf("fetch span = %+v", trace.Spans[1])
	}
	// The trace total is the delta against the starting snapshot.
	if trace.IO.BitmapColumnsFetched != 7 || trace.IO.BytesRead != 300 {
		t.Errorf("trace IO = %+v", trace.IO)
	}
	if trace.DurationNanos < 0 {
		t.Errorf("duration = %d", trace.DurationNanos)
	}
}

func TestIODeltaAddSub(t *testing.T) {
	a := IODelta{BitmapColumnsFetched: 3, MeasureColumnsFetched: 1, BytesRead: 100}
	b := IODelta{BitmapColumnsFetched: 1, MeasureColumnsFetched: 1, BytesRead: 40}
	sum := a.Add(b)
	if sum.BitmapColumnsFetched != 4 || sum.BytesRead != 140 || sum.ColumnsFetched() != 6 {
		t.Errorf("Add = %+v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
}

func TestPhaseTotalsMergesRepeatedPhases(t *testing.T) {
	trace := Trace{Spans: []Span{
		{Phase: PhasePlan, DurationNanos: 10, IO: IODelta{BitmapColumnsFetched: 1}},
		{Phase: PhaseFetch, DurationNanos: 20, IO: IODelta{BitmapColumnsFetched: 2}},
		{Phase: PhasePlan, DurationNanos: 5, IO: IODelta{BitmapColumnsFetched: 3}},
	}}
	totals := trace.PhaseTotals()
	if len(totals) != 2 {
		t.Fatalf("totals = %+v", totals)
	}
	if totals[0].Phase != PhasePlan || totals[0].DurationNanos != 15 ||
		totals[0].IO.BitmapColumnsFetched != 4 {
		t.Errorf("merged plan = %+v", totals[0])
	}
	if totals[1].Phase != PhaseFetch || totals[1].DurationNanos != 20 {
		t.Errorf("fetch = %+v", totals[1])
	}
}

func TestNilActiveTraceIsSafe(t *testing.T) {
	var tr *ActiveTrace
	tr.Begin(PhasePlan, IODelta{})
	if got := tr.Finish(IODelta{}); len(got.Spans) != 0 {
		t.Errorf("nil trace produced spans: %+v", got)
	}
}

func TestTraceRingEviction(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Trace{StartUnixNanos: int64(i)})
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Errorf("len = %d, total = %d", r.Len(), r.Total())
	}
	recent := r.Recent()
	// Newest first: 4, 3, 2.
	for i, want := range []int64{4, 3, 2} {
		if recent[i].StartUnixNanos != want {
			t.Errorf("recent[%d] = %d, want %d", i, recent[i].StartUnixNanos, want)
		}
	}
	var nilRing *TraceRing
	nilRing.Add(Trace{})
	if nilRing.Recent() != nil || nilRing.Len() != 0 || nilRing.Total() != 0 {
		t.Error("nil ring not inert")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	in := Trace{Kind: KindGraph, Query: "[A,B]", DurationNanos: 42,
		Spans: []Span{{Phase: PhaseFetch, DurationNanos: 42}}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Trace
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Query != in.Query || len(out.Spans) != 1 ||
		out.Spans[0].Phase != PhaseFetch {
		t.Errorf("round trip = %+v", out)
	}
}

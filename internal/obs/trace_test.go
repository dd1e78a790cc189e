package obs

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestActiveTraceSpans(t *testing.T) {
	io := IODelta{}
	tr := StartTrace(KindGraph, "[A,B]", "", io)
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

// TestStartTraceOpensFirstSpan: a phase given to StartTrace is open from the
// trace's start, and beginning the open phase again continues its span, so
// the spans still cover the trace end to end.
func TestStartTraceOpensFirstSpan(t *testing.T) {
	io := IODelta{}
	tr := StartTrace(KindGraph, "[A,B]", PhasePlan, io)
	io.BitmapColumnsFetched = 1
	tr.Begin(PhasePlan, io)
	io.BitmapColumnsFetched = 4
	tr.Begin(PhaseFetch, io)
	io.BitmapColumnsFetched = 6
	trace := tr.Finish(io)
	if len(trace.Spans) != 2 || trace.Spans[0].Phase != PhasePlan || trace.Spans[1].Phase != PhaseFetch {
		t.Fatalf("spans = %+v, want one plan span then one fetch span", trace.Spans)
	}
	if got := trace.Spans[0].IO.BitmapColumnsFetched; got != 4 {
		t.Errorf("plan span fetched %d columns, want 4 (from the trace's start)", got)
	}
	if sum := trace.Spans[0].DurationNanos + trace.Spans[1].DurationNanos; sum != trace.DurationNanos {
		t.Errorf("spans cover %d ns of a %d ns trace", sum, trace.DurationNanos)
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

// TestEnterChargesOwnCost: a trace whose reading is its own cost record
// (what an engine charges through Cost) splits that record over its spans
// and totals it, with no reading passed in.
func TestEnterChargesOwnCost(t *testing.T) {
	r := NewTraceRing(1)
	tr := StartTrace(KindGraph, "[A,B]", PhasePlan, IODelta{})
	tr.Enter(PhaseFetch)
	tr.Cost().BitmapColumnsFetched += 3
	tr.Cost().BytesRead += 120
	tr.Enter(PhaseIntersect)
	tr.Cost().RecordsReturned++
	r.Record(tr, *tr.Cost(), nil)
	trace := r.Recent()[0]
	want := []IODelta{{}, {BitmapColumnsFetched: 3, BytesRead: 120}, {RecordsReturned: 1}}
	if len(trace.Spans) != len(want) {
		t.Fatalf("spans = %+v", trace.Spans)
	}
	for i, w := range want {
		if trace.Spans[i].IO != w {
			t.Errorf("span %d (%s) I/O = %+v, want %+v", i, trace.Spans[i].Phase, trace.Spans[i].IO, w)
		}
	}
	if total := (IODelta{BitmapColumnsFetched: 3, BytesRead: 120, RecordsReturned: 1}); trace.IO != total {
		t.Errorf("trace I/O = %+v, want %+v", trace.IO, total)
	}
	var nilTrace *ActiveTrace
	nilTrace.Enter(PhaseFetch)
	if nilTrace.Cost() != nil {
		t.Error("nil trace has a cost record")
	}
}

// TestRecordHandsBackEvicted: once the ring is full, Record hands back the
// trace it evicted; StartTraceIn reopens it reset, and Recent's copies do not
// alias a reopened trace's spans or children.
func TestRecordHandsBackEvicted(t *testing.T) {
	r := NewTraceRing(2)
	record := func(a *ActiveTrace, query string) *ActiveTrace {
		tr := StartTraceIn(a, KindGraph, query, PhasePlan, IODelta{})
		tr.Enter(PhaseFetch)
		tr.AddChild(Trace{Kind: KindGraph, Spans: []Span{{Phase: PhaseFetch}}})
		_, evicted := r.Record(tr, IODelta{}, nil)
		return evicted
	}
	if record(nil, "q1") != nil || record(nil, "q2") != nil {
		t.Fatal("Record evicted a trace from a ring that was not full")
	}
	before := r.Recent()
	spare := record(nil, "q3") // evicts q1
	if spare == nil {
		t.Fatal("Record of a full ring handed back nothing")
	}
	tr := StartTraceIn(spare, KindGraph, "q4", PhasePlan, IODelta{})
	if tr != spare || tr.trace.Query != "q4" || len(tr.trace.Spans) != 0 ||
		len(tr.trace.Children) != 0 || tr.trace.Error != "" || *tr.Cost() != (IODelta{}) {
		t.Fatalf("reopened trace not reset: %+v", tr.trace)
	}
	tr.Enter(PhaseIntersect)
	tr.AddChild(Trace{Kind: KindPathAgg})
	r.Record(tr, IODelta{}, errors.New("boom"))
	if q1 := before[1]; q1.Query != "q1" || len(q1.Spans) != 2 || q1.Spans[1].Phase != PhaseFetch ||
		len(q1.Children) != 1 || q1.Children[0].Kind != KindGraph {
		t.Errorf("an earlier Recent copy changed: %+v", q1)
	}
	got := r.Recent()
	if got[0].Query != "q4" || got[0].Error != "boom" || got[1].Query != "q3" {
		t.Errorf("recent = %q (%q), %q", got[0].Query, got[0].Error, got[1].Query)
	}
}

// TestRecordDatesTracesByWallClock: a recorded trace's start lies between
// wall-clock readings taken around it, including after the ring's wall
// reading has aged past wallAnchorAge.
func TestRecordDatesTracesByWallClock(t *testing.T) {
	r := NewTraceRing(1)
	check := func(what string) {
		t.Helper()
		before := time.Now().UnixNano()
		r.Record(StartTrace(KindGraph, "q", PhasePlan, IODelta{}), IODelta{}, nil)
		after := time.Now().UnixNano()
		// The monotonic and wall clocks may disagree by a little rounding.
		const slack = int64(time.Millisecond)
		if got := r.Recent()[0].StartUnixNanos; got < before-slack || got > after+slack {
			t.Errorf("%s: trace starts at %d, outside [%d, %d]", what, got, before, after)
		}
	}
	check("first trace")
	r.mono -= 2 * wallAnchorAge // age the ring's wall reading
	r.wall -= int64(time.Hour)  // as if the wall clock stepped since it
	check("after a step")
}

// TestTraceRingAddCopies: the ring keeps its own copy of an added trace's
// spans and children, so the caller's arrays stay the caller's.
func TestTraceRingAddCopies(t *testing.T) {
	r := NewTraceRing(2)
	in := Trace{Kind: KindWALCheckpoint, Spans: []Span{{Phase: PhaseSnapshot}},
		Children: []Trace{{Kind: KindGraph}}}
	r.Add(in)
	in.Spans[0].Phase = PhaseWALTruncate
	in.Children[0].Kind = KindPathAgg
	got := r.Recent()[0]
	if got.Spans[0].Phase != PhaseSnapshot || got.Children[0].Kind != KindGraph {
		t.Errorf("ring aliases the added trace: %+v", got)
	}
}

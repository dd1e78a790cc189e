package grove

import (
	"context"
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 || s.Sum != 40 || s.Mean != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.StdDev-2) > 1e-9 {
		t.Errorf("StdDev = %v, want 2", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeSkipsNulls(t *testing.T) {
	s := Summarize([]float64{1, math.NaN(), 3})
	if s.Count != 2 || s.Sum != 4 || s.Mean != 2 {
		t.Errorf("Summary = %+v", s)
	}
	empty := Summarize([]float64{math.NaN()})
	if empty.Count != 0 || empty.Sum != 0 {
		t.Errorf("all-NULL Summary = %+v", empty)
	}
	if Summarize(nil).Count != 0 {
		t.Error("nil Summarize non-zero")
	}
}

func TestAveragePath(t *testing.T) {
	st := buildSCMStore(t)
	ids, avgs, err := AveragePath(context.Background(), st, "A", "D", "E", "G", "I")
	if err != nil {
		t.Fatal(err)
	}
	// Record 0: 4 legs of 2h → avg 2.
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("ids = %v", ids)
	}
	if avgs[0] != 2 {
		t.Errorf("avg = %v, want 2", avgs[0])
	}
}

func TestAveragePathUsesViews(t *testing.T) {
	st := buildSCMStore(t)
	// Materialize SUM and COUNT views over the same subpath; AVG must still
	// be exact.
	if err := st.MaterializeAggViewPath("s", Sum, "", "A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	if err := st.MaterializeAggViewPath("c", Count, "", "A", "D", "E"); err != nil {
		t.Fatal(err)
	}
	_, avgs, err := AveragePath(context.Background(), st, "A", "D", "E", "G", "I")
	if err != nil {
		t.Fatal(err)
	}
	if avgs[0] != 2 {
		t.Errorf("avg with views = %v, want 2", avgs[0])
	}
}

func TestAveragePathNullPath(t *testing.T) {
	st := Open()
	rec := NewRecord()
	if err := rec.SetEdge("A", "B", 1); err != nil {
		t.Fatal(err)
	}
	rec.AddBareElement(EdgeKey{From: "B", To: "C"})
	st.Add(rec)
	_, avgs, err := AveragePath(context.Background(), st, "A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(avgs[0]) {
		t.Errorf("avg over NULL = %v, want NaN", avgs[0])
	}
}

func TestSummarizeByTag(t *testing.T) {
	st := buildSCMStore(t)
	// Records 0 and 2 contain A→D→E→G with times 2 and 5 per leg.
	if err := st.Tag(0, "type", "fast"); err != nil {
		t.Fatal(err)
	}
	if err := st.Tag(2, "type", "regular"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Aggregate(PathOf("A", "D", "E", "G").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := st.SummarizeByTag(res, "type")
	if err != nil {
		t.Fatal(err)
	}
	if g := groups["fast"]; g.Count != 1 || g.Sum != 6 {
		t.Errorf("fast group = %+v", g)
	}
	if g := groups["regular"]; g.Count != 1 || g.Sum != 15 {
		t.Errorf("regular group = %+v", g)
	}
	if _, hasUntagged := groups[""]; hasUntagged {
		t.Error("unexpected untagged group")
	}
}

func TestSummarizeByTagUntaggedGroup(t *testing.T) {
	st := buildSCMStore(t)
	if err := st.Tag(0, "type", "fast"); err != nil {
		t.Fatal(err)
	}
	res, err := st.Aggregate(PathOf("A", "D", "E", "G").ToGraph(), Sum)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := st.SummarizeByTag(res, "type")
	if err != nil {
		t.Fatal(err)
	}
	if g := groups[""]; g.Count != 1 || g.Sum != 15 {
		t.Errorf("untagged group = %+v", g)
	}
	if _, err := st.SummarizeByTag(nil, "type"); err == nil {
		t.Error("nil result accepted")
	}
}

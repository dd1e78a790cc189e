package obs

import (
	"strconv"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("grove_test_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	g := r.Gauge("grove_test_gauge", "help")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d", g.Value())
	}
	// Re-registration returns the same handle.
	if r.Counter("grove_test_total", "help") != c {
		t.Error("re-registration returned a new counter")
	}
}

func TestRegisterKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("grove_conflict", "")
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("grove_conflict", "")
}

func TestSplitName(t *testing.T) {
	for _, tc := range []struct{ in, family, labels string }{
		{"grove_events_total", "grove_events_total", ""},
		{`grove_events_total{kind="graph"}`, "grove_events_total", `kind="graph"`},
		{`x{a="1",b="2"}`, "x", `a="1",b="2"`},
	} {
		f, l := splitName(tc.in)
		if f != tc.family || l != tc.labels {
			t.Errorf("splitName(%q) = %q, %q", tc.in, f, l)
		}
	}
}

func TestLabelsEscaping(t *testing.T) {
	got := Labels("kind", "graph", "q", "a\"b\\c\nd")
	want := `kind="graph",q="a\"b\\c\nd"`
	if got != want {
		t.Errorf("Labels = %s, want %s", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 560.5 {
		t.Errorf("sum = %v", h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("bucket shape: %d bounds, %d counts", len(bounds), len(cum))
	}
	// Cumulative: ≤1 → 1, ≤10 → 3, ≤100 → 4, +Inf → 5.
	for i, want := range []int64{1, 3, 4, 5} {
		if cum[i] != want {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], want)
		}
	}
}

// TestWritePrometheusFormat exercises every metric kind and checks the
// exposition parses line-by-line: families get one HELP/TYPE header, every
// sample line is `name{labels} value` with a parseable float.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`grove_events_total{kind="graph"}`, "Events.").Add(3)
	r.Counter(`grove_events_total{kind="expr"}`, "Events.").Add(1)
	r.Gauge("grove_workers_busy", "Busy workers.").Set(2)
	r.Histogram(`grove_latency_seconds{kind="graph"}`, "Latency.", []float64{0.1, 1}).Observe(0.5)
	r.CounterFunc("grove_hits_total", "Hits.", func() float64 { return 42 })
	r.GaugeFunc("grove_size_bytes", "Size.", func() float64 { return 1024 })
	r.CounterVecFunc("grove_view_uses_total", "View uses.", func() map[string]float64 {
		return map[string]float64{Labels("view", "v1"): 5, Labels("view", "v2"): 7}
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE grove_events_total counter",
		`grove_events_total{kind="expr"} 1`,
		`grove_events_total{kind="graph"} 3`,
		"# TYPE grove_latency_seconds histogram",
		`grove_latency_seconds_bucket{kind="graph",le="0.1"} 0`,
		`grove_latency_seconds_bucket{kind="graph",le="+Inf"} 1`,
		`grove_latency_seconds_sum{kind="graph"} 0.5`,
		`grove_latency_seconds_count{kind="graph"} 1`,
		"grove_hits_total 42",
		"grove_size_bytes 1024",
		`grove_view_uses_total{view="v1"} 5`,
		`grove_view_uses_total{view="v2"} 7`,
		"grove_workers_busy 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// One HELP/TYPE pair per family, and every sample line parses.
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			if types[fam] {
				t.Errorf("duplicate TYPE header for %s", fam)
			}
			types[fam] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
	}
}

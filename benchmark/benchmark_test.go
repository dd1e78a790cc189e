package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"grove/internal/fsio"
)

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median(v); got != 3 {
		t.Errorf("median of 5 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty input must give NaN")
	}
	if !reflect.DeepEqual(v, []float64{5, 1, 4, 2, 3}) {
		t.Error("input was reordered")
	}
	if got := relDiff(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relDiff(90,100) = %v, want 0.1", got)
	}
}

// One operation: a 100 ns root whose child took 70 ns, which fanned out to
// three shards of 20, 50 and 30 ns, the slowest with a 10 ns leaf under it
// and a faster one with a 25 ns leaf that must stay off the critical path.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spStoreMatch, parent: -1, start: 0, end: 100},
		{name: spCoordQuery, parent: 0, start: 100, end: 170},
		{name: spEngine, parent: 1, parallel: true, start: 170, end: 190},
		{name: spEngine, parent: 1, parallel: true, start: 190, end: 240},
		{name: spEngine, parent: 1, parallel: true, start: 240, end: 270},
		{name: spAndAll, parent: 3, start: 270, end: 280},
		{name: spAndAll, parent: 4, start: 280, end: 305},
	}
	self, critical := analyse(spans)
	if want := []int64{30, 20, 20, 40, 5, 10, 25}; !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if want := []bool{true, true, false, true, false, true, false}; !reflect.DeepEqual(critical, want) {
		t.Errorf("critical = %v, want %v", critical, want)
	}
	st := (&tracer{spans: spans}).stats()
	layers, share, unattributed := st.layerShares()
	total := 0.0
	for _, l := range layers {
		total += share[l]
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("critical-path shares add up to %v, want 1", total)
	}
	if math.Abs(share["bitmap"]-0.10) > 1e-12 || math.Abs(unattributed-0.40) > 1e-12 {
		t.Errorf("bitmap share %v (want 0.10), unattributed %v (want 0.40)", share["bitmap"], unattributed)
	}
	if got := st.opSelf(spEngine); len(got) != 1 || math.Abs(got[0]-0.065) > 1e-12 {
		t.Errorf("opSelf(engine) = %v, want [0.065] us", got)
	}
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a, err := newCorpus(7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newCorpus(7, 0.02)
	c, _ := newCorpus(8, 0.02)
	if a.digest() != b.digest() {
		t.Error("same seed, different corpus")
	}
	if a.digest() == c.digest() {
		t.Error("different seeds, same corpus")
	}
	if _, err := newCorpus(7, 0); err == nil {
		t.Error("scale 0 accepted")
	}
}

func testConfig(t *testing.T) runConfig {
	return runConfig{seed: 42, scale: 0.02, seconds: 0.02, setups: 1, outDir: t.TempDir(), workers: 2}
}

// Every workload, untraced and traced, at a fiftieth of the size with the
// oracle on: no call may fail and every metric must be a number. The two
// workloads whose counters depend on more than the queries — buffer-pool
// eviction order, WAL framing — run twice to show the counters repeat.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			cfg := testConfig(t)
			r, err := runWorkload(cfg, def)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%d of %d calls failed", r.failed, r.attempted)
			}
			for name, v := range r.metrics() {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v", name, v)
				}
			}
			if def.Name == "agg-paged-1pct" || def.Name == "ingest-wal" {
				again, err := runWorkload(cfg, def)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r.counters, again.counters) {
					t.Errorf("exact counters differ between two runs of seed %d:\n%v\n%v", cfg.seed, r.counters, again.counters)
				}
			}

			lr, err := traceWorkload(cfg, def)
			if err != nil {
				t.Fatal(err)
			}
			if lr.failed != 0 || lr.replayMismatches != 0 {
				t.Errorf("traced: %d of %d calls failed, %d replay mismatches", lr.failed, lr.attempted, lr.replayMismatches)
			}
			for name, v := range lr.values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("traced %s = %v", name, v)
				}
			}
			path := filepath.Join(cfg.outDir, "trace.json")
			if err := lr.tr.write(path, def.Name, envStamp(cfg)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Names []string
				Spans [][6]int64
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("span file is not JSON: %v", err)
			}
			if len(doc.Spans) != len(lr.tr.spans) || len(doc.Names) != int(numSpanNames) {
				t.Errorf("span file has %d spans and %d names, want %d and %d", len(doc.Spans), len(doc.Names), len(lr.tr.spans), numSpanNames)
			}
		})
	}
}

func TestResultLine(t *testing.T) {
	var buf bytes.Buffer
	if err := printResultLine(&buf, 10, 0, endToEnd, map[string]float64{"ops_per_s": 1.5}); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "true" || string(line["attempted"]) != "10" || string(line["failed"]) != "0" {
		t.Errorf("result line %s", buf.String())
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["ops_per_s"] != (metricValue{1.5, "1/s"}) {
		t.Errorf("metrics %v", metrics)
	}
}

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	fs := newCountingFS(fsio.OS())
	name := filepath.Join(dir, "a")
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"hello ", "world"} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(name, name+"2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	a, err := fs.OpenAppend(name + "2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(name + "2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	at := make([]byte, 5)
	if _, err := r.ReadAt(at, 6); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world!" || string(at) != "world" {
		t.Errorf("read back %q and %q", got, at)
	}
	c := fs.counts()
	if c.Writes != 3 || c.WriteBytes != 12 || c.Syncs != 2 || c.Renames != 1 {
		t.Errorf("write side: %+v", c)
	}
	if c.ReadBytes != 12+5 || c.Reads < 2 {
		t.Errorf("read side: %+v", c)
	}
	if _, err := fs.Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("opening a missing file succeeded")
	}
	if d := fs.counts().sub(c); d != (fsCounts{}) {
		t.Errorf("a failed open was counted: %+v", d)
	}
}

// BENCHMARK.json is what the driver reads; metrics.go is what the program
// prints. They must name the same workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v vs %+v", i, spec.Workloads[i], w)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d+%d metrics in BENCHMARK.json, %d+%d in metrics.go", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v vs %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v vs %+v", i, got, d)
		}
	}
}

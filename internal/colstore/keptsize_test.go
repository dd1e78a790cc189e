package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"grove/internal/agg"
)

// TestKeptSizeMatchesSizeBytes drives random writes — out-of-order sets,
// appended rows, deletes, tags, view materialization and Optimize — and
// after each one checks every column's kept size against a fresh walk of its
// containers. Each check also reads the sizes, so every write lands on a
// column whose size is kept and must be forgotten.
func TestKeptSizeMatchesSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	r := NewRelation(0)
	for i := 0; i < 4; i++ {
		r.AppendRow(nil)
	}
	check := func(step int, what string) {
		t.Helper()
		bitmapCol := func(name string, c *BitmapColumn) {
			if got, want := c.SizeBytes(), c.bits.SizeBytes(); got != want {
				t.Fatalf("step %d (%s): %s kept %d bytes, holds %d", step, what, name, got, want)
			}
		}
		measureCol := func(name string, c *MeasureColumn) {
			if got, want := c.SizeBytes(), c.present.SizeBytes()+8*c.Count(); got != want {
				t.Fatalf("step %d (%s): %s kept %d bytes, holds %d", step, what, name, got, want)
			}
		}
		for _, id := range r.Edges() {
			bitmapCol(fmt.Sprintf("b%d", id), r.edgeColumn(id))
		}
		for id, c := range r.measures {
			measureCol(fmt.Sprintf("m%d", id), c)
		}
		for name, cols := range r.named {
			for id, c := range cols {
				measureCol(fmt.Sprintf("m%d^%s", id, name), c)
			}
		}
		for key, byValue := range r.tags {
			for value, c := range byValue {
				bitmapCol("tag "+key+"="+value, c)
			}
		}
		cat := r.Catalog()
		for _, v := range cat.views {
			bitmapCol("view "+v.Name, v.Col)
		}
		for _, v := range cat.aggViews {
			bitmapCol("agg view "+v.Name, v.Col)
			measureCol("agg view measure "+v.Name, v.Measure)
		}
	}
	edge := func() EdgeID { return EdgeID(rng.Intn(12)) }
	for step := 0; step < 3000; step++ {
		n := uint32(r.NumRecords())
		var what string
		switch op := rng.Intn(10); {
		case op < 3:
			what = "append"
			cells := make([]Cell, 1+rng.Intn(5))
			for i := range cells {
				cells[i] = Cell{Edge: edge(), Value: rng.Float64(), HasValue: rng.Intn(3) > 0}
				if rng.Intn(4) == 0 {
					cells[i].Named = []NamedValue{{Name: "cost", Value: rng.Float64()}}
				}
			}
			r.AppendRow(cells)
		case op < 5:
			what = "set measure"
			name := ""
			if rng.Intn(3) == 0 {
				name = "cost"
			}
			if err := r.AppendEdge(uint32(rng.Intn(int(n))), edge(), name, rng.Float64(), true); err != nil {
				t.Fatal(err)
			}
		case op < 6:
			what = "set edge"
			if err := r.AppendEdge(uint32(rng.Intn(int(n))), edge(), "", 0, false); err != nil {
				t.Fatal(err)
			}
		case op < 7:
			what = "delete"
			if _, err := r.Delete(uint32(rng.Intn(int(n)))); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			what = "tag"
			if err := r.Tag(uint32(rng.Intn(int(n))), "region", fmt.Sprint(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			what = "optimize"
			r.Optimize()
		default:
			what = "materialize"
			a, b := edge(), edge()
			if a == b {
				continue
			}
			if rng.Intn(2) == 0 {
				_, _ = r.MaterializeView(fmt.Sprintf("v%d", step), []EdgeID{a, b})
			} else {
				_, _ = r.MaterializeAggView(fmt.Sprintf("p%d", step), []EdgeID{a, b}, agg.Sum)
			}
		}
		check(step, what)
	}
}

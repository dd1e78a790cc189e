package bench

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// tinyScale keeps the full experiment suite runnable inside unit tests.
func tinyScale() Scale {
	return Scale{
		SensitivityRecords: 200,
		NYRecords:          600,
		GNURecords:         400,
		Fig5Records:        60,
		NumQueries:         20,
		Seed:               42,
	}
}

func TestTablePrintAndCSV(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 3)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a  bb", "1  2", "note: n=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	tab.CSV(&buf)
	if got := buf.String(); got != "a,bb\n1,2\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if e.Run == nil || e.ID == "" || e.Description == "" {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// One experiment per evaluation table/figure of the paper.
	for _, want := range []string{"table2", "fig3a", "fig3b", "fig3c", "fig4",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
	if _, err := Lookup("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup accepted unknown id")
	}
}

// TestAllExperimentsRun executes every experiment at tiny scale and checks
// each produces a non-empty, well-formed table.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	sc := tinyScale()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(context.Background(), sc)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s: row %v does not match columns %v", e.ID, row, tab.Columns)
				}
			}
		})
	}
}

func TestFig6ViewsReduceRestTime(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	sc := tinyScale()
	sc.NYRecords = 3000
	tab, err := Fig6(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	// The view count column must be monotone in the budget.
	prev := -1
	for _, row := range tab.Rows {
		var views int
		if _, err := parseInt(row[4], &views); err != nil {
			t.Fatalf("bad views cell %q", row[4])
		}
		if views < prev {
			t.Fatalf("view count decreased along the sweep: %v", tab.Rows)
		}
		prev = views
	}
	if prev == 0 {
		t.Fatal("no views were ever materialized")
	}
}

func parseInt(s string, out *int) (int, error) {
	n, err := strconv.Atoi(s)
	*out = n
	return n, err
}

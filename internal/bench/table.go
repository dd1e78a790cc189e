// Package bench implements grove's experiment harness: one experiment per
// table and figure of the paper's evaluation (§7), each regenerating the
// corresponding rows/series over synthetic stand-in datasets. Absolute
// numbers differ from the paper's 2014 testbed (and datasets are scaled down
// to run in minutes on one core); the comparisons — who wins, by what
// factor, where the trends bend — are the reproduction target, and
// EXPERIMENTS.md records paper-vs-measured for each.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(&b, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintln(&b, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(&b, strings.Join(row, ","))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtMS formats a duration in milliseconds with sensible precision.
func fmtMS(ms float64) string {
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 1:
		return fmt.Sprintf("%.1f", ms)
	default:
		return fmt.Sprintf("%.3f", ms)
	}
}

// fmtMB formats bytes as megabytes.
func fmtMB(b int64) string {
	return fmt.Sprintf("%.2f", float64(b)/(1<<20))
}

package graph

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders a graph in Graphviz DOT format, for quick visual
// inspection of query graphs and reconstructed records. If rec is non-nil,
// its measures annotate the corresponding elements.
func WriteDOT(w io.Writer, name string, g *Graph, rec *Record) error {
	if g == nil {
		return fmt.Errorf("graph: nil graph")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", sanitizeDOT(name))
	b.WriteString("  rankdir=LR;\n")
	for _, n := range g.Nodes() {
		label := n
		if rec != nil {
			if m := rec.Measure(NodeKey(n)); m.Valid {
				label = fmt.Sprintf("%s\\n%.3g", n, m.Value)
			}
		}
		fmt.Fprintf(&b, "  %q [label=%q];\n", n, label)
	}
	for _, k := range g.elems {
		if k.IsNode() {
			continue
		}
		if rec != nil {
			if m := rec.Measure(k); m.Valid {
				fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", k.From, k.To, fmt.Sprintf("%.3g", m.Value))
				continue
			}
		}
		fmt.Fprintf(&b, "  %q -> %q;\n", k.From, k.To)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func sanitizeDOT(s string) string {
	if s == "" {
		return "g"
	}
	return strings.Map(func(r rune) rune {
		if r == '"' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}

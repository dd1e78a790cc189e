package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Measure is an optional numeric annotation on a structural element.
type Measure struct {
	Value float64
	Valid bool
}

// DefaultMeasure is the name of the unnamed measure. Applications recording
// a single value per element (the paper's presentation default, §3.1) never
// need another name; applications recording several — e.g. time AND cost in
// the SCM scenario of §2 — use named measures, which become additional
// m_i^name columns in the master relation.
const DefaultMeasure = ""

// Record is a graph record (§3.1): a directed graph whose nodes and edges
// carry measure values. Elements may also be present without a measure (the
// master relation then has a bit in b_i but NULL in m_i).
//
// Each measure is a slice of (element, value) pairs in EdgeKey.Less order,
// kept apart from the graph's element slice: the embedded graph's methods
// (AddEdge, AddNode, AddElement) insert elements without touching measures,
// and Row merges the sorted slices instead of looking anything up.
type Record struct {
	*Graph
	measures []measured     // the default measure
	named    []namedMeasure // additional named measures, by name
}

// measured is one element's value under one measure.
type measured struct {
	key EdgeKey
	v   float64
}

func (m measured) compare(o measured) int { return m.key.compare(o.key) }

// namedMeasure is the column of one named measure.
type namedMeasure struct {
	name string
	vals []measured
}

// NewRecord returns an empty graph record.
func NewRecord() *Record {
	// One allocation for the record and its graph.
	both := &struct {
		rec Record
		g   Graph
	}{}
	both.rec.Graph = &both.g
	return &both.rec
}

// SetEdge adds edge (from, to) with measure v.
func (r *Record) SetEdge(from, to string, v float64) error {
	return r.SetElement(E(from, to), v)
}

// SetNode adds node x with measure v.
func (r *Record) SetNode(x string, v float64) error {
	return r.SetElement(NodeKey(x), v)
}

// SetElement adds a structural element with measure v, replacing any prior
// measure.
func (r *Record) SetElement(k EdgeKey, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("graph: measure for %s must be finite, got %v", k, v)
	}
	r.AddElement(k)
	r.measures = setMeasure(r.measures, k, v)
	return nil
}

// setMeasure sets k's value in a sorted measure slice.
func setMeasure(ms []measured, k EdgeKey, v float64) []measured {
	ms, i := insertSorted(ms, measured{k, v}, measured.compare)
	ms[i].v = v // a key already there keeps its place and takes the new value
	return ms
}

// lookup returns k's value in a sorted measure slice.
func lookup(ms []measured, k EdgeKey) Measure {
	i, found := slices.BinarySearchFunc(ms, measured{key: k}, measured.compare)
	if !found {
		return Measure{}
	}
	return Measure{Value: ms[i].v, Valid: true}
}

// AddBareElement adds a structural element without a measure.
func (r *Record) AddBareElement(k EdgeKey) {
	r.AddElement(k)
}

// SetElementNamed adds a structural element with a named measure, replacing
// any prior value under that name. The empty name is the default measure.
func (r *Record) SetElementNamed(k EdgeKey, name string, v float64) error {
	if name == DefaultMeasure {
		return r.SetElement(k, v)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("graph: measure %q for %s must be finite, got %v", name, k, v)
	}
	r.AddElement(k)
	i, found := r.column(name)
	if !found {
		r.named = slices.Insert(r.named, i, namedMeasure{name: name})
	}
	r.named[i].vals = setMeasure(r.named[i].vals, k, v)
	return nil
}

// column finds the named measure's column, or where it would go.
func (r *Record) column(name string) (int, bool) {
	return slices.BinarySearchFunc(r.named, name, func(m namedMeasure, name string) int {
		return strings.Compare(m.name, name)
	})
}

// SetEdgeNamed adds edge (from, to) with a named measure.
func (r *Record) SetEdgeNamed(from, to, name string, v float64) error {
	return r.SetElementNamed(E(from, to), name, v)
}

// Measure returns the default measure for element k.
func (r *Record) Measure(k EdgeKey) Measure { return lookup(r.measures, k) }

// MeasureNamed returns the named measure for element k.
func (r *Record) MeasureNamed(k EdgeKey, name string) Measure {
	if name == DefaultMeasure {
		return r.Measure(k)
	}
	i, found := r.column(name)
	if !found {
		return Measure{}
	}
	return lookup(r.named[i].vals, k)
}

// MeasureNames lists the named measures present (excluding the default), in
// sorted order.
func (r *Record) MeasureNames() []string {
	out := make([]string, len(r.named))
	for i, m := range r.named {
		out[i] = m.name
	}
	return out
}

// NumMeasures counts the measured (element, name) pairs, default included.
func (r *Record) NumMeasures() int {
	n := len(r.measures)
	for _, m := range r.named {
		n += len(m.vals)
	}
	return n
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record { return r.Row().Record() }

// FlattenSequence turns a visit sequence (an RFID-style trace of node stops
// with per-leg measures) into an acyclic record, renaming revisited nodes
// with occurrence aliases: A,B,C,A,D ⇒ edges (A,B),(B,C),(C,A#2),(A#2,D)
// (§6.2). legMeasures[i] is the measure of the leg stops[i]→stops[i+1] and
// must have length len(stops)-1 (or be nil for no measures).
func FlattenSequence(stops []string, legMeasures []float64) (*Record, error) {
	if len(stops) < 2 {
		return nil, fmt.Errorf("graph: sequence needs at least 2 stops, got %d", len(stops))
	}
	if legMeasures != nil && len(legMeasures) != len(stops)-1 {
		return nil, fmt.Errorf("graph: %d stops need %d leg measures, got %d",
			len(stops), len(stops)-1, len(legMeasures))
	}
	rec := NewRecord()
	occ := make(map[string]int, len(stops))
	alias := func(s string) string {
		occ[s]++
		if occ[s] == 1 {
			return s
		}
		return fmt.Sprintf("%s#%d", s, occ[s])
	}
	prev := alias(stops[0])
	for i := 1; i < len(stops); i++ {
		cur := alias(stops[i])
		if legMeasures != nil {
			if err := rec.SetEdge(prev, cur, legMeasures[i-1]); err != nil {
				return nil, err
			}
		} else {
			rec.AddBareElement(E(prev, cur))
		}
		prev = cur
	}
	return rec, nil
}

// FlattenToDAG returns an acyclic copy of the record. Back edges discovered
// by depth-first search are redirected to fresh occurrence aliases of their
// targets (A ⇒ A#2, …), preserving measures. Records that are already
// acyclic are returned as a plain clone.
func FlattenToDAG(r *Record) *Record {
	if !r.HasCycle() {
		return r.Clone()
	}
	// The copy is collected as a row in the order the elements are reached
	// — node elements first, then edges in DFS order — and sorted once.
	src := r.Row()
	out := &Row{}
	emit := func(k EdgeKey, i int) {
		out.Keys = append(out.Keys, k)
		out.Cells = append(out.Cells, src.Cells[i])
	}
	for i, k := range src.Keys {
		if k.IsNode() {
			emit(k, i)
		}
	}
	state := make(map[string]int)
	aliasN := make(map[string]int)
	var visit func(n string)
	visit = func(n string) {
		state[n] = grey
		lo, hi := r.outRange(n)
		for i := lo; i < hi; i++ {
			s := src.Keys[i].To
			if s == n {
				continue // node element, not an edge
			}
			switch state[s] {
			case grey:
				// Back edge: redirect to a fresh alias of s.
				aliasN[s]++
				emit(E(n, fmt.Sprintf("%s#%d", s, aliasN[s]+1)), i)
			case white:
				emit(src.Keys[i], i)
				visit(s)
			default:
				emit(src.Keys[i], i)
			}
		}
		state[n] = black
	}
	for _, n := range r.nodes {
		if state[n] == white {
			visit(n)
		}
	}
	return out.Record()
}

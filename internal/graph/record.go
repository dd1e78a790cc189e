package graph

import (
	"fmt"
	"math"
	"sort"
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
type Record struct {
	*Graph
	measures map[EdgeKey]float64            // the default measure
	named    map[string]map[EdgeKey]float64 // additional named measures
}

// NewRecord returns an empty graph record.
func NewRecord() *Record {
	return &Record{Graph: NewGraph(), measures: make(map[EdgeKey]float64)}
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
	r.measures[k] = v
	return nil
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
	if r.named == nil {
		r.named = make(map[string]map[EdgeKey]float64)
	}
	m, ok := r.named[name]
	if !ok {
		m = make(map[EdgeKey]float64)
		r.named[name] = m
	}
	m[k] = v
	return nil
}

// SetEdgeNamed adds edge (from, to) with a named measure.
func (r *Record) SetEdgeNamed(from, to, name string, v float64) error {
	return r.SetElementNamed(E(from, to), name, v)
}

// Measure returns the default measure for element k.
func (r *Record) Measure(k EdgeKey) Measure {
	v, ok := r.measures[k]
	return Measure{Value: v, Valid: ok}
}

// MeasureNamed returns the named measure for element k.
func (r *Record) MeasureNamed(k EdgeKey, name string) Measure {
	if name == DefaultMeasure {
		return r.Measure(k)
	}
	v, ok := r.named[name][k]
	return Measure{Value: v, Valid: ok}
}

// MeasureNames lists the named measures present (excluding the default), in
// sorted order.
func (r *Record) MeasureNames() []string {
	out := make([]string, 0, len(r.named))
	for name := range r.named {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NumMeasures counts the measured (element, name) pairs, default included.
func (r *Record) NumMeasures() int {
	n := len(r.measures)
	for _, m := range r.named {
		n += len(m)
	}
	return n
}

// ForEachMeasure visits measured elements in deterministic order.
func (r *Record) ForEachMeasure(f func(k EdgeKey, v float64) bool) {
	for _, k := range r.Elements() {
		if v, ok := r.measures[k]; ok {
			if !f(k, v) {
				return
			}
		}
	}
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	out := NewRecord()
	out.Graph = r.Graph.Clone()
	for k, v := range r.measures {
		out.measures[k] = v
	}
	for name, m := range r.named {
		for k, v := range m {
			_ = out.SetElementNamed(k, name, v) //grovevet:ignore droppederr v passed SetElementNamed's finiteness check when it entered r
		}
	}
	return out
}

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
	out := NewRecord()
	// Copy node elements and their measures first.
	for _, k := range r.Elements() {
		if k.IsNode() {
			if m := r.Measure(k); m.Valid {
				_ = out.SetElement(k, m.Value) //grovevet:ignore droppederr measures already stored in r are finite
			} else {
				out.AddBareElement(k)
			}
			for _, name := range r.MeasureNames() {
				if m := r.MeasureNamed(k, name); m.Valid {
					_ = out.SetElementNamed(k, name, m.Value) //grovevet:ignore droppederr measures already stored in r are finite
				}
			}
		}
	}
	state := make(map[string]int)
	aliasN := make(map[string]int)
	nextAlias := func(s string) string {
		aliasN[s]++
		return fmt.Sprintf("%s#%d", s, aliasN[s]+1)
	}
	copyEdge := func(from, origFrom, to, origTo string) {
		k := E(origFrom, origTo)
		if m := r.Measure(k); m.Valid {
			_ = out.SetEdge(from, to, m.Value) //grovevet:ignore droppederr measures already stored in r are finite
		} else {
			out.AddBareElement(E(from, to))
		}
		for _, name := range r.MeasureNames() {
			if m := r.MeasureNamed(k, name); m.Valid {
				_ = out.SetElementNamed(E(from, to), name, m.Value) //grovevet:ignore droppederr measures already stored in r are finite
			}
		}
	}
	var visit func(n string)
	visit = func(n string) {
		state[n] = grey
		for _, s := range r.Successors(n) {
			switch state[s] {
			case grey:
				// Back edge: redirect to a fresh alias of s.
				copyEdge(n, n, nextAlias(s), s)
			case white:
				copyEdge(n, n, s, s)
				visit(s)
			default:
				copyEdge(n, n, s, s)
			}
		}
		state[n] = black
	}
	for _, n := range r.Nodes() {
		if state[n] == white {
			visit(n)
		}
	}
	return out
}

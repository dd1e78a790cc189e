package graph

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"grove/internal/colstore"
)

// Row is the flat form of a graph record: its structural elements in
// EdgeKey.Less order, each with its default and named measures.
// It is the only form the write path sees — Record.Row builds it once per
// live append, the write-ahead log encodes it and decodes straight back into
// it, and AppendRow applies it to the master relation.
//
// Keys[i] names Cells[i]. Cells[i].Edge is filled by Registry.ResolveRow;
// Cells[i].Named is ordered by measure name.
type Row struct {
	Keys  []EdgeKey
	Cells []colstore.Cell
}

// Row flattens the record: a copy of its elements and one merge of each
// measure's sorted slice into them — no sort, no hashing.
func (r *Record) Row() *Row {
	keys := r.Elements()
	row := &Row{Keys: keys, Cells: make([]colstore.Cell, len(keys))}
	// Every measured key is an element, so each measure is a subsequence
	// of keys and one cursor per measure walks it.
	next := 0
	for i, k := range keys {
		if next < len(r.measures) && r.measures[next].key == k {
			row.Cells[i].Value, row.Cells[i].HasValue = r.measures[next].v, true
			next++
		}
	}
	if len(r.named) == 0 {
		return row
	}
	cur := make([]int, len(r.named))
	named := make([]colstore.NamedValue, 0, r.NumMeasures()-len(r.measures))
	for i, k := range keys {
		start := len(named)
		for n := range r.named {
			col := &r.named[n]
			if cur[n] < len(col.vals) && col.vals[cur[n]].key == k {
				named = append(named, colstore.NamedValue{Name: col.name, Value: col.vals[cur[n]].v})
				cur[n]++
			}
		}
		row.Cells[i].Named = named[start:len(named):len(named)]
	}
	return row
}

// Record builds the record the row describes, as if by the same sequence of
// Set calls in row order: a repeated element or measure name keeps its last
// value. It appends every element and value, then sorts and compacts each
// slice once.
func (row *Row) Record() *Record {
	type namedEntry struct {
		name string
		measured
	}
	var entries []namedEntry
	rec := NewRecord()
	for i, k := range row.Keys {
		c := &row.Cells[i]
		if c.HasValue {
			rec.measures = append(rec.measures, measured{k, c.Value})
		}
		for _, nv := range c.Named {
			if nv.Name == DefaultMeasure {
				rec.measures = append(rec.measures, measured{k, nv.Value})
			} else {
				entries = append(entries, namedEntry{nv.Name, measured{k, nv.Value}})
			}
		}
	}
	rec.settle(slices.Clone(row.Keys))
	rec.measures = lastOfEach(rec.measures, measured.compare)
	entries = lastOfEach(entries, func(a, b namedEntry) int {
		return cmp.Or(strings.Compare(a.name, b.name), a.compare(b.measured))
	})
	for i, e := range entries {
		if i == 0 || e.name != entries[i-1].name {
			rec.named = append(rec.named, namedMeasure{name: e.name})
		}
		col := &rec.named[len(rec.named)-1]
		col.vals = append(col.vals, e.measured)
	}
	return rec
}

// ErrRowOrder and ErrRowCycle are what Row.Check wraps.
var (
	ErrRowOrder = errors.New("graph: row is not canonical")
	ErrRowCycle = errors.New("graph: row has a directed cycle")
)

// Check reports whether row is in the form AppendRow appends as it stands,
// and why not: an error wrapping ErrRowOrder for a row that is not what
// Record.Row produces (keys strictly ascending, so no element repeats, and
// every cell's named measures strictly ascending by a non-default name), or
// wrapping ErrRowCycle for a row whose edges form a directed cycle.
func (row *Row) Check() error {
	if err := row.orderErr(); err != nil {
		return err
	}
	if hasCycle(row.Keys) {
		return ErrRowCycle
	}
	return nil
}

// orderErr is the canonical-order half of Check.
func (row *Row) orderErr() error {
	for i, k := range row.Keys {
		if i > 0 {
			switch row.Keys[i-1].compare(k) {
			case 0:
				return fmt.Errorf("%w: element %v repeats", ErrRowOrder, k)
			case 1:
				return fmt.Errorf("%w: element %v follows %v", ErrRowOrder, k, row.Keys[i-1])
			}
		}
		prev := DefaultMeasure
		for _, nv := range row.Cells[i].Named {
			if nv.Name <= prev {
				return fmt.Errorf("%w: element %v lists measure %q after %q", ErrRowOrder, k, nv.Name, prev)
			}
			prev = nv.Name
		}
	}
	return nil
}

// DFS colours, kept per From-group at the index of the group's first key.
const (
	white = iota
	grey
	black
)

// groupSeed keys the per-row node index of hasCycle.
var groupSeed = maphash.MakeSeed()

// cycleCheck is the scratch of one hasCycle call. The keys are sorted by
// From, so a node's successors are the contiguous range starting at its
// group — the first key with that From. slots is an open-addressed table
// from node name to group index + 1; a node with no outgoing edge has no
// group and is never entered.
type cycleCheck struct {
	keys  []EdgeKey
	state []uint8
	slots []int32
}

// hasCycle reports whether the proper edges among keys — sorted by From, as
// a canonical row's or a graph's are — contain a directed cycle. Up to 128
// keys are checked without allocating.
func hasCycle(keys []EdgeKey) bool {
	var stateBuf [128]uint8
	var slotBuf [256]int32
	c := cycleCheck{keys: keys, state: stateBuf[:], slots: slotBuf[:]}
	if n := len(keys); n > len(stateBuf) {
		size := 256
		for size < 2*n {
			size *= 2
		}
		c.state, c.slots = make([]uint8, n), make([]int32, size)
	}
	for i, k := range c.keys {
		if i == 0 || k.From != c.keys[i-1].From {
			h := c.slot(k.From)
			for c.slots[h] != 0 {
				h = (h + 1) & (len(c.slots) - 1)
			}
			c.slots[h] = int32(i) + 1
		}
	}
	for i, k := range c.keys {
		if (i == 0 || k.From != c.keys[i-1].From) && c.state[i] == white && c.visit(i) {
			return true
		}
	}
	return false
}

func (c *cycleCheck) slot(node string) int {
	return int(maphash.String(groupSeed, node)) & (len(c.slots) - 1)
}

// group returns the index of the first key whose From is node, or -1.
func (c *cycleCheck) group(node string) int {
	for h := c.slot(node); c.slots[h] != 0; h = (h + 1) & (len(c.slots) - 1) {
		if g := int(c.slots[h]) - 1; c.keys[g].From == node {
			return g
		}
	}
	return -1
}

// visit runs the DFS from the node whose out-edges start at keys[start].
func (c *cycleCheck) visit(start int) bool {
	c.state[start] = grey
	from := c.keys[start].From
	for j := start; j < len(c.keys) && c.keys[j].From == from; j++ {
		to := c.keys[j].To
		if to == from {
			continue // node element, not an edge
		}
		g := c.group(to)
		if g < 0 {
			continue
		}
		switch c.state[g] {
		case grey:
			return true
		case white:
			if c.visit(g) {
				return true
			}
		}
	}
	c.state[start] = black
	return false
}

// NormalizeRow returns row in the form AppendRow appends: canonical and
// acyclic. A cyclic row is flattened to a DAG (§6.2) so path aggregation
// downstream behaves as intended; that, and a row that is not canonical, go
// through Row.Record — the one slow path, which only hand-made or cyclic
// input reaches. Any other row is returned as it is.
func NormalizeRow(row *Row) *Row {
	if row.orderErr() != nil {
		row = row.Record().Row()
	}
	if hasCycle(row.Keys) {
		row = FlattenToDAG(row.Record()).Row()
	}
	return row
}

// AppendRow appends row to the master relation as one record, assigning ids
// for any new elements, and returns the record id: NormalizeRow,
// Registry.ResolveRow, then one relation append — the coordinator's
// add-record path in one call, for loaders that have no coordinator. The
// row's edge ids are filled in place, so a row belongs to one append.
func AppendRow(rel *colstore.Relation, reg *Registry, row *Row) uint32 {
	row = NormalizeRow(row)
	reg.ResolveRow(row)
	return rel.AppendRow(row.Cells)
}

// LoadRecord appends a record to the master relation: rec.Row() through
// AppendRow.
func LoadRecord(rel *colstore.Relation, reg *Registry, rec *Record) uint32 {
	return AppendRow(rel, reg, rec.Row())
}

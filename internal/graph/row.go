package graph

import (
	"hash/maphash"

	"grove/internal/colstore"
)

// Row is the flat form of a graph record: its structural elements in
// EdgeKey.Less order, each with its default and named measures, and no maps.
// It is the only form the write path sees — Record.Row builds it once per
// live append, the write-ahead log encodes it and decodes straight back into
// it, and AppendRow applies it to the master relation.
//
// Keys[i] names Cells[i]. Cells[i].Edge is filled by AppendRow (through
// Registry.resolve); Cells[i].Named is ordered by measure name.
type Row struct {
	Keys  []EdgeKey
	Cells []colstore.Cell
}

// Row flattens the record: one sort of the elements, one lookup per measure.
func (r *Record) Row() *Row {
	keys := r.Elements()
	row := &Row{Keys: keys, Cells: make([]colstore.Cell, len(keys))}
	names := r.MeasureNames()
	var named []colstore.NamedValue
	if len(names) > 0 {
		named = make([]colstore.NamedValue, 0, r.NumMeasures()-len(r.measures))
	}
	for i, k := range keys {
		c := &row.Cells[i]
		c.Value, c.HasValue = r.measures[k]
		start := len(named)
		for _, name := range names {
			if v, ok := r.named[name][k]; ok {
				named = append(named, colstore.NamedValue{Name: name, Value: v})
			}
		}
		c.Named = named[start:len(named):len(named)]
	}
	return row
}

// Record rebuilds the map form, element by element in row order: a repeated
// element or measure name keeps its last value, exactly as a Record built by
// the same sequence of Set calls would.
func (row *Row) Record() *Record {
	rec := NewRecord()
	for i, k := range row.Keys {
		c := &row.Cells[i]
		if c.HasValue {
			_ = rec.SetElement(k, c.Value) //grovevet:ignore droppederr row values are finite: Record.Row copies checked values and the log decoder rejects the rest
		} else {
			rec.AddBareElement(k)
		}
		for _, nv := range c.Named {
			_ = rec.SetElementNamed(k, nv.Name, nv.Value) //grovevet:ignore droppederr row values are finite: Record.Row copies checked values and the log decoder rejects the rest
		}
	}
	return rec
}

// canonical reports whether the row is what Record.Row produces: keys
// strictly ascending, every cell's named measures strictly ascending by a
// non-default name. Only a hand-made log can hold a row that is not.
func (row *Row) canonical() bool {
	for i := range row.Keys {
		if i > 0 && !row.Keys[i-1].Less(row.Keys[i]) {
			return false
		}
		prev := DefaultMeasure
		for _, nv := range row.Cells[i].Named {
			if nv.Name <= prev {
				return false
			}
			prev = nv.Name
		}
	}
	return true
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

// hasCycle reports whether the proper edges of a canonical row contain a
// directed cycle. Rows of up to 128 elements are checked without allocating.
func (row *Row) hasCycle() bool {
	var stateBuf [128]uint8
	var slotBuf [256]int32
	c := cycleCheck{keys: row.Keys, state: stateBuf[:], slots: slotBuf[:]}
	if n := len(row.Keys); n > len(stateBuf) {
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

// AppendRow appends row to the master relation as one record, assigning ids
// for any new elements, and returns the record id. It is the single apply
// function behind live ingest and log replay. A cyclic row is flattened to a
// DAG first (§6.2) so path aggregation downstream behaves as intended; that,
// and a row that is not canonical, go through the map form — the one slow
// path, which only hand-made or cyclic input reaches. The row's edge ids are
// filled in place, so a row belongs to one append.
func AppendRow(rel *colstore.Relation, reg *Registry, row *Row) uint32 {
	if !row.canonical() {
		row = row.Record().Row()
	}
	if row.hasCycle() {
		row = FlattenToDAG(row.Record()).Row()
	}
	reg.resolve(row)
	return rel.AppendRow(row.Cells)
}

// LoadRecord appends a record to the master relation: rec.Row() through
// AppendRow.
func LoadRecord(rel *colstore.Relation, reg *Registry, rec *Record) uint32 {
	return AppendRow(rel, reg, rec.Row())
}

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

// ErrRowOrder and ErrRowCycle are what Row.CheckNodes wraps.
var (
	ErrRowOrder = errors.New("graph: row is not canonical")
	ErrRowCycle = errors.New("graph: row has a directed cycle")
)

// CheckNodes reports whether row is in the form AppendRow appends as it
// stands, and why not: an error wrapping ErrRowOrder for a row that is not
// what Record.Row produces (keys strictly ascending, so no element repeats,
// and every cell's named measures strictly ascending by a non-default name),
// or wrapping ErrRowCycle for a row whose edges form a directed cycle. The
// row's node names come numbered, one number per name: from[i] and to[i]
// number Keys[i].From and Keys[i].To. The cycle check runs on the numbers,
// in c's scratch, which the caller reuses from row to row.
func (row *Row) CheckNodes(from, to []int32, c *Cycles) error {
	if err := row.orderErr(); err != nil {
		return err
	}
	if c.Has(from, to) {
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

// groupSeed keys hasCycle's table from node name to group.
var groupSeed = maphash.MakeSeed()

// Cycles is the scratch of the cycle check over numbered nodes, reused from
// row to row: once it has grown to the longest row and the highest node
// number it has met, a check allocates nothing, and it never compares or
// hashes a name.
type Cycles struct {
	state []uint8
	group []int32
	mark  []uint32
	epoch uint32
}

// Has reports whether the proper edges from[i] → to[i] contain a directed
// cycle. A node is a non-negative number, one per name; from must run in
// contiguous groups, as the From names of a canonical row or a graph do, and
// a key whose to equals its from is a node element, not an edge.
func (c *Cycles) Has(from, to []int32) bool {
	c.state = slices.Grow(c.state[:0], len(from))[:len(from)]
	clear(c.state)
	top := int32(-1)
	for _, f := range from {
		top = max(top, f)
	}
	if n := int(top) + 1; n > len(c.group) {
		c.group = make([]int32, max(n, 2*len(c.group)))
		c.mark = make([]uint32, len(c.group))
		c.epoch = 0
	}
	if c.epoch++; c.epoch == 0 {
		clear(c.mark)
		c.epoch = 1
	}
	d := cycleDFS{from: from, to: to, state: c.state, group: c.group, mark: c.mark, epoch: c.epoch}
	return d.has()
}

// cycleDFS is one cycle check: the row's node numbers and the scratch it
// runs in. Its methods only index the slices, never store them, so a caller
// can hand it stack arrays.
type cycleDFS struct {
	from, to []int32
	// state holds the DFS colour of each From-group, at the index of the
	// group's first key, all white on entry.
	state []uint8
	// group[n] is the index of node n's first key, valid only when
	// mark[n] == epoch: a node with no out-edges has no group. mark holds no
	// value equal to epoch on entry, and group and mark cover every From.
	group []int32
	mark  []uint32
	epoch uint32
}

func (d *cycleDFS) has() bool {
	for i, f := range d.from {
		if i == 0 || f != d.from[i-1] {
			d.group[f], d.mark[f] = int32(i), d.epoch
		}
	}
	for i, f := range d.from {
		if (i == 0 || f != d.from[i-1]) && d.state[i] == white && d.visit(i) {
			return true
		}
	}
	return false
}

// visit runs the DFS from the node whose out-edges start at key start.
func (d *cycleDFS) visit(start int) bool {
	d.state[start] = grey
	f := d.from[start]
	for j := start; j < len(d.from) && d.from[j] == f; j++ {
		t := d.to[j]
		if t == f || int(t) >= len(d.mark) || d.mark[t] != d.epoch {
			continue // a node element, or a node with no out-edges
		}
		switch g := d.group[t]; d.state[g] {
		case grey:
			return true
		case white:
			if d.visit(int(g)) {
				return true
			}
		}
	}
	d.state[start] = black
	return false
}

// hasCycle reports whether the proper edges among keys — sorted by From, as
// a canonical row's or a graph's are — contain a directed cycle. It numbers
// each From-group by its order, finds each To's group through an
// open-addressed table from name to the index of the group's first key,
// numbers a To with no group one past the groups, and runs the DFS of
// Cycles.Has. Up to 128 keys are checked without allocating.
func hasCycle(keys []EdgeKey) bool {
	const stack = 128
	var nodeBuf [2][stack]int32
	var slotBuf [2 * stack]int32
	var stateBuf [stack]uint8
	var groupBuf [stack + 1]int32
	var markBuf [stack + 1]uint32
	n := len(keys)
	d := cycleDFS{group: groupBuf[:], mark: markBuf[:], epoch: 1}
	slots := slotBuf[:]
	if n <= stack {
		d.from, d.to, d.state = nodeBuf[0][:n], nodeBuf[1][:n], stateBuf[:n]
	} else {
		size := len(slotBuf)
		for size < 2*n {
			size *= 2
		}
		d.from, d.to, d.state, slots = make([]int32, n), make([]int32, n), make([]uint8, n), make([]int32, size)
		d.group, d.mark = make([]int32, n+1), make([]uint32, n+1)
	}
	g := int32(-1)
	for i, k := range keys {
		if i == 0 || k.From != keys[i-1].From {
			h := groupSlot(k.From, len(slots))
			for slots[h] != 0 {
				h = (h + 1) & (len(slots) - 1)
			}
			slots[h] = int32(i) + 1
			g++
		}
		d.from[i] = g
	}
	for i, k := range keys {
		d.to[i] = g + 1
		for h := groupSlot(k.To, len(slots)); slots[h] != 0; h = (h + 1) & (len(slots) - 1) {
			if first := slots[h] - 1; keys[first].From == k.To {
				d.to[i] = d.from[first]
				break
			}
		}
	}
	return d.has()
}

// groupSlot is node's home slot in a table of size entries, a power of two.
func groupSlot(node string, size int) int {
	return int(maphash.String(groupSeed, node)) & (size - 1)
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

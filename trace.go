package grove

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Trace interchange format: one JSON object per line, each describing one
// graph record — the shape monitoring pipelines (RFID readers, flow
// collectors, workflow engines) can emit directly:
//
//	{"edges":[{"from":"A","to":"D","measure":3.5,
//	           "measures":{"cost":40}}],
//	 "nodes":[{"id":"D","measure":0.5}],
//	 "tags":{"type":"fast-track"}}
//
// Cyclic traces are flattened to DAGs on load, like any other record.

// TraceEdge is one edge of a trace record.
type TraceEdge struct {
	From    string   `json:"from"`
	To      string   `json:"to"`
	Measure *float64 `json:"measure,omitempty"`
	// Measures holds additional named measures (e.g. "cost").
	Measures map[string]float64 `json:"measures,omitempty"`
}

// TraceNode is one measured node of a trace record.
type TraceNode struct {
	ID      string   `json:"id"`
	Measure *float64 `json:"measure,omitempty"`
	// Measures holds additional named measures.
	Measures map[string]float64 `json:"measures,omitempty"`
}

// TraceRecord is the JSONL representation of one graph record.
type TraceRecord struct {
	Edges []TraceEdge       `json:"edges"`
	Nodes []TraceNode       `json:"nodes,omitempty"`
	Tags  map[string]string `json:"tags,omitempty"`
}

// ToRecord converts the trace representation into a Record.
func (t TraceRecord) ToRecord() (*Record, error) {
	rec := NewRecord()
	for _, e := range t.Edges {
		if e.From == "" || e.To == "" {
			return nil, fmt.Errorf("grove: trace edge with empty endpoint: %+v", e)
		}
		k := EdgeKey{From: e.From, To: e.To}
		if e.Measure != nil {
			if err := rec.SetElement(k, *e.Measure); err != nil {
				return nil, err
			}
		} else {
			rec.AddBareElement(k)
		}
		for name, v := range e.Measures {
			if err := rec.SetElementNamed(k, name, v); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range t.Nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("grove: trace node with empty id")
		}
		k := EdgeKey{From: n.ID, To: n.ID}
		if n.Measure != nil {
			if err := rec.SetElement(k, *n.Measure); err != nil {
				return nil, err
			}
		} else {
			rec.AddBareElement(k)
		}
		for name, v := range n.Measures {
			if err := rec.SetElementNamed(k, name, v); err != nil {
				return nil, err
			}
		}
	}
	if rec.NumElements() == 0 {
		return nil, fmt.Errorf("grove: empty trace record")
	}
	return rec, nil
}

// ImportTraces reads JSONL trace records from r and adds each to the store,
// applying tags. It returns the number of records imported; on error, the
// records imported before the bad line remain in the store, and the error
// names the failing line.
func (s *Store) ImportTraces(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := 0
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var tr TraceRecord
		if err := json.Unmarshal(raw, &tr); err != nil {
			return n, fmt.Errorf("grove: trace line %d: %w", line, err)
		}
		rec, err := tr.ToRecord()
		if err != nil {
			return n, fmt.Errorf("grove: trace line %d: %w", line, err)
		}
		id := s.Add(rec)
		for k, v := range tr.Tags {
			if err := s.Tag(id, k, v); err != nil {
				return n, fmt.Errorf("grove: trace line %d: %w", line, err)
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("grove: reading traces: %w", err)
	}
	return n, nil
}

// ExportTraces writes every stored record (reconstructed from the columns)
// as JSONL to w. Tags are included. Returns the number of records written.
func (s *Store) ExportTraces(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	// Fetch every tag bitmap once up front instead of once per record: the
	// per-record membership test is then a bitmap Contains, turning
	// O(records × tags) column fetches into O(tags).
	type tagBitmap struct {
		key, value string
		bits       *Bitmap
	}
	var tags []tagBitmap
	for _, key := range s.coord.TagKeys() {
		for _, value := range s.coord.TagValues(key) {
			tags = append(tags, tagBitmap{key: key, value: value,
				bits: s.coord.TaggedWith(key, value)})
		}
	}
	for id := uint32(0); int(id) < s.NumRecords(); id++ {
		rec, err := s.GetRecord(id)
		if err != nil {
			return int(id), err
		}
		tr := TraceRecord{}
		names := rec.MeasureNames()
		for _, k := range rec.Elements() {
			named := map[string]float64{}
			for _, name := range names {
				if m := rec.MeasureNamed(k, name); m.Valid {
					named[name] = m.Value
				}
			}
			if len(named) == 0 {
				named = nil
			}
			if k.IsNode() {
				tn := TraceNode{ID: k.From, Measures: named}
				if m := rec.Measure(k); m.Valid {
					v := m.Value
					tn.Measure = &v
				}
				tr.Nodes = append(tr.Nodes, tn)
			} else {
				te := TraceEdge{From: k.From, To: k.To, Measures: named}
				if m := rec.Measure(k); m.Valid {
					v := m.Value
					te.Measure = &v
				}
				tr.Edges = append(tr.Edges, te)
			}
		}
		for _, t := range tags {
			if t.bits.Contains(id) {
				if tr.Tags == nil {
					tr.Tags = map[string]string{}
				}
				tr.Tags[t.key] = t.value
			}
		}
		if err := enc.Encode(tr); err != nil {
			return int(id), err
		}
	}
	if err := bw.Flush(); err != nil {
		return s.NumRecords(), err
	}
	return s.NumRecords(), nil
}

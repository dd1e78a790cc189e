package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"grove"
)

// oracle holds reference answers computed on the plainest configuration
// grove has — one shard, in memory, no views, no cache — over the same
// records. Record-id sets must match it exactly everywhere. Aggregates must
// match bit for bit wherever no aggregate view is in play; a SUM view stores
// a partial sum, so folding it re-associates the float additions and the
// last bits move (measured: up to 4e-16 relative), and those workloads
// compare to viewTolerance instead.
type oracle struct {
	st    *grove.Store
	tol   float64 // relative tolerance on aggregate cells; 0 compares bits
	match map[*grove.Graph]uint64
	agg   map[*grove.Graph]*grove.AggResult
}

// viewTolerance bounds the re-association error of a SUM over at most a
// dozen edges by a wide margin while still catching any wrong operand.
const viewTolerance = 1e-12

func newOracle(records []*grove.Record, tol float64) *oracle {
	st := grove.Open()
	for _, rec := range records {
		st.Add(rec)
	}
	return &oracle{st: st, tol: tol, match: map[*grove.Graph]uint64{}, agg: map[*grove.Graph]*grove.AggResult{}}
}

// digestIDs is the FNV-1a digest of a record-id set in ascending order, the
// scheme record.go uses for workload replay.
func digestIDs(b *grove.Bitmap) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	b.Each(func(v uint32) bool {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
		return true
	})
	return h.Sum64()
}

// sameAgg reports whether got has want's record ids and, cell by cell,
// want's aggregates: identical bits, or within tol of each other.
func sameAgg(got, want *grove.AggResult, tol float64) bool {
	if len(got.RecordIDs) != len(want.RecordIDs) || len(got.Values) != len(want.Values) {
		return false
	}
	for i, id := range want.RecordIDs {
		if got.RecordIDs[i] != id {
			return false
		}
	}
	for p, vals := range want.Values {
		if len(got.Values[p]) != len(vals) {
			return false
		}
		for i, w := range vals {
			g := got.Values[p][i]
			if math.Float64bits(g) == math.Float64bits(w) {
				continue
			}
			if tol == 0 || !(math.Abs(g-w) <= tol*math.Max(math.Abs(g), math.Abs(w))) {
				return false
			}
		}
	}
	return true
}

// checkMatch counts 1 when an answer to Match(g) is an error or differs from
// the reference, which it computes on first use.
func (o *oracle) checkMatch(res *grove.Result, err error, g *grove.Graph) (int, error) {
	want, ok := o.match[g]
	if !ok {
		ref, oerr := o.st.Match(g)
		if oerr != nil {
			return 0, fmt.Errorf("oracle match: %w", oerr)
		}
		want = digestIDs(ref.Answer)
		o.match[g] = want
	}
	if err != nil || digestIDs(res.Answer) != want {
		return 1, nil
	}
	return 0, nil
}

// checkAgg is checkMatch for Aggregate(g, SUM).
func (o *oracle) checkAgg(res *grove.AggResult, err error, g *grove.Graph) (int, error) {
	want, ok := o.agg[g]
	if !ok {
		var oerr error
		if want, oerr = o.st.Aggregate(g, grove.Sum); oerr != nil {
			return 0, fmt.Errorf("oracle aggregate: %w", oerr)
		}
		o.agg[g] = want
	}
	if err != nil || !sameAgg(res, want, o.tol) {
		return 1, nil
	}
	return 0, nil
}

// probe checks that st holds exactly n records and answers the first
// probeQueries aggregate-pool queries like the reference; it returns calls
// attempted and failed.
func (o *oracle) probe(st *grove.Store, n int, pool []*grove.Graph) (attempted, failed int, err error) {
	attempted = 1
	if st.NumRecords() != n {
		failed++
	}
	for _, g := range pool[:min(probeQueries, len(pool))] {
		res, qerr := st.Aggregate(g, grove.Sum)
		bad, err := o.checkAgg(res, qerr, g)
		if err != nil {
			return attempted, failed, err
		}
		attempted++
		failed += bad
	}
	return attempted, failed, nil
}

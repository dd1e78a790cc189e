package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"grove/internal/gpath"
	"grove/internal/graph"
	"grove/internal/query"
)

// The differential harness: build the same record corpus into a 1-shard and
// an n-shard coordinator and assert that the full query surface — structural
// matches, boolean expressions, path aggregations (values compared by
// Float64bits, so NaN and signed zero must survive the merge), batches and
// text statements — answers bit-identically, including the total
// MeasuresScanned accounting (every record is scanned exactly once, in
// exactly one shard).

// fig2Records transcribes the paper's running example (Fig. 2 / Table 1):
// three records over edges e1=(A,B) e2=(A,C) e3=(C,E) e4=(A,D) e5=(D,E)
// e6=(E,F) e7=(F,G).
func fig2Records(t testing.TB) []*graph.Record {
	t.Helper()
	edges := []graph.EdgeKey{
		graph.E("A", "B"), graph.E("A", "C"), graph.E("C", "E"),
		graph.E("A", "D"), graph.E("D", "E"), graph.E("E", "F"), graph.E("F", "G"),
	}
	const absent = -1e300
	measures := [3][7]float64{
		{3, 4, 2, 1, 2, absent, absent},
		{absent, 1, 2, 2, 1, 4, 1},
		{absent, absent, absent, 5, 4, 3, 1},
	}
	var out []*graph.Record
	for _, m := range measures {
		rec := graph.NewRecord()
		for i, k := range edges {
			if m[i] != absent {
				if err := rec.SetEdge(k.From, k.To, m[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

// randomRecords synthesizes records over a layered DAG universe (A0..D3),
// mixing in zero, negative-zero and negative measures so the float merge has
// something to get wrong.
func randomRecords(t testing.TB, rng *rand.Rand, numRecords int) []*graph.Record {
	t.Helper()
	var universe []graph.EdgeKey
	name := func(layer, i int) string {
		return string(rune('A'+layer)) + string(rune('0'+i))
	}
	for layer := 0; layer < 3; layer++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				universe = append(universe, graph.E(name(layer, i), name(layer+1, j)))
			}
		}
	}
	measurePool := []float64{1, 2, 9, -3, 0.5, 0.0, math.Copysign(0, -1), -7.25}
	var out []*graph.Record
	for r := 0; r < numRecords; r++ {
		rec := graph.NewRecord()
		n := 3 + rng.Intn(len(universe)/2)
		for k := 0; k < n; k++ {
			e := universe[rng.Intn(len(universe))]
			if err := rec.SetEdge(e.From, e.To, measurePool[rng.Intn(len(measurePool))]); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, rec)
	}
	return out
}

// buildPair loads records sequentially into a 1-shard and an n-shard
// coordinator, asserting both assign the same global ids.
func buildPair(t testing.TB, records []*graph.Record, n int) (*Coordinator, *Coordinator) {
	t.Helper()
	c1, cn := New(1, 0), New(n, 0)
	for i, rec := range records {
		id1, idn := c1.Add(rec), cn.Add(rec)
		if id1 != idn || id1 != uint32(i) {
			t.Fatalf("record %d: ids diverge (1-shard %d, %d-shard %d)", i, id1, n, idn)
		}
	}
	return c1, cn
}

func diffMatch(t *testing.T, c1, cn *Coordinator, q *query.GraphQuery) {
	t.Helper()
	r1, err1 := c1.MatchContext(context.Background(), q)
	rn, errn := cn.MatchContext(context.Background(), q)
	if (err1 == nil) != (errn == nil) {
		t.Fatalf("%s: errors diverge: %v vs %v", q.String(), err1, errn)
	}
	if err1 != nil {
		return
	}
	if !r1.Answer.Equals(rn.Answer) {
		t.Fatalf("%s: answers diverge:\n1-shard %v\nn-shard %v", q.String(), r1.Answer, rn.Answer)
	}
}

// diffAgg compares aggregation results bit-for-bit: record order, per-path
// values (by Float64bits — NaN vs NaN must agree, 0.0 vs -0.0 must not), and
// the fetched-measure totals.
func diffAgg(t *testing.T, c1, cn *Coordinator, q *query.PathAggQuery) {
	t.Helper()
	r1, err1 := c1.AggregateContext(context.Background(), q)
	rn, errn := cn.AggregateContext(context.Background(), q)
	if (err1 == nil) != (errn == nil) {
		t.Fatalf("%s: errors diverge: %v vs %v", q.String(), err1, errn)
	}
	if err1 != nil {
		return
	}
	assertAggEqual(t, q.String(), r1, rn)
}

func assertAggEqual(t *testing.T, label string, r1, rn *query.AggResult) {
	t.Helper()
	if !r1.Answer.Equals(rn.Answer) {
		t.Fatalf("%s: answer bitmaps diverge", label)
	}
	if len(r1.RecordIDs) != len(rn.RecordIDs) {
		t.Fatalf("%s: %d vs %d records", label, len(r1.RecordIDs), len(rn.RecordIDs))
	}
	for i := range r1.RecordIDs {
		if r1.RecordIDs[i] != rn.RecordIDs[i] {
			t.Fatalf("%s: record order diverges at %d: %d vs %d", label, i, r1.RecordIDs[i], rn.RecordIDs[i])
		}
	}
	if len(r1.Paths) != len(rn.Paths) || len(r1.Values) != len(rn.Values) {
		t.Fatalf("%s: path sets diverge", label)
	}
	for p := range r1.Values {
		for i := range r1.Values[p] {
			b1, bn := math.Float64bits(r1.Values[p][i]), math.Float64bits(rn.Values[p][i])
			if b1 != bn {
				t.Fatalf("%s: value[path %d][%d] diverges: %x (%v) vs %x (%v)",
					label, p, i, b1, r1.Values[p][i], bn, rn.Values[p][i])
			}
		}
	}
}

func TestDifferentialFig2Corpus(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		c1, cn := buildPair(t, fig2Records(t), n)

		for _, nodes := range [][]string{
			{"A", "B"}, {"A", "C", "E"}, {"A", "D", "E"}, {"A", "C", "E", "F"},
			{"E", "F", "G"}, {"A", "D", "E", "F", "G"}, {"X", "Y"},
		} {
			diffMatch(t, c1, cn, query.NewGraphQuery(gpath.Closed(nodes...).ToGraph()))
		}

		for _, f := range []query.AggFunc{query.Sum, query.Min, query.Max, query.Count} {
			for _, nodes := range [][]string{
				{"A", "C", "E", "F"}, {"A", "D", "E"}, {"E", "F", "G"}, {"A", "B"},
			} {
				diffAgg(t, c1, cn, query.NewPathAggQuery(gpath.Closed(nodes...).ToGraph(), f))
			}
		}

		// The §3.4 example must still read SUM[A,C,E,F] = 7 on record 2 (the
		// second record) after the merge — sanity that the harness itself
		// queries what it claims to.
		r, err := cn.AggregateContext(context.Background(),
			query.NewPathAggQuery(gpath.Closed("A", "C", "E", "F").ToGraph(), query.Sum))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.RecordIDs) != 1 || r.RecordIDs[0] != 1 || r.Values[0][0] != 7 {
			t.Fatalf("n=%d: SUM[A,C,E,F] = %v @ %v", n, r.Values, r.RecordIDs)
		}

		// Boolean expressions and text statements.
		expr := query.Diff{
			A: query.Or{Operands: []query.Expr{
				query.Leaf{Q: query.NewGraphQuery(gpath.Closed("A", "D", "E").ToGraph())},
				query.Leaf{Q: query.NewGraphQuery(gpath.Closed("A", "B").ToGraph())},
			}},
			B: query.Leaf{Q: query.NewGraphQuery(gpath.Closed("F", "G").ToGraph())},
		}
		b1, err1 := c1.Execute(context.Background(), query.Statement{Expr: expr})
		bn, errn := cn.Execute(context.Background(), query.Statement{Expr: expr})
		if err1 != nil || errn != nil {
			t.Fatalf("eval: %v / %v", err1, errn)
		}
		if !b1.IDs.Equals(bn.IDs) {
			t.Fatalf("n=%d: expression answers diverge", n)
		}

		var stmts []query.Statement
		for _, text := range []string{
			"[A,D,E] AND NOT [A,B]",
			"SUM [A,C,E,F]",
			"MAX [A,D,E,F,G]",
			"([A,B] OR [F,G]) AND [A,D]",
			"SUM (A,D,E]",
			"SCALAR SUM [A,D,E]",
			"SCALAR MAX {[A,D] [D,E] [E,F]}",
		} {
			st, err := query.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			stmts = append(stmts, st)
			s1, err1 := c1.Execute(context.Background(), st)
			sn, errn := cn.Execute(context.Background(), st)
			if err1 != nil || errn != nil {
				t.Fatalf("%q: %v / %v", text, err1, errn)
			}
			assertStatementEqual(t, text, s1, sn)
		}
		// The statement batch answers as the statements one by one.
		batch, errs := cn.ExecuteStatementBatchContext(context.Background(), stmts, 2)
		for i, st := range stmts {
			if errs[i] != nil {
				t.Fatalf("batch %s: %v", st, errs[i])
			}
			one, err := c1.Execute(context.Background(), st)
			if err != nil {
				t.Fatal(err)
			}
			assertStatementEqual(t, st.String(), one, batch[i])
		}
	}
}

// assertStatementEqual fails unless two statement answers are of one kind
// and equal bit for bit.
func assertStatementEqual(t *testing.T, label string, a, b *query.StatementResult) {
	t.Helper()
	switch {
	case a.IDs != nil:
		if b.IDs == nil || !a.IDs.Equals(b.IDs) {
			t.Fatalf("%s: id answers diverge", label)
		}
	case a.Agg != nil:
		if b.Agg == nil {
			t.Fatalf("%s: statement kinds diverge", label)
		}
		assertAggEqual(t, label, a.Agg, b.Agg)
	default:
		if b.Scalar == nil || a.Scalar.Records != b.Scalar.Records ||
			math.Float64bits(a.Scalar.Value) != math.Float64bits(b.Scalar.Value) {
			t.Fatalf("%s: scalars diverge: %+v vs %+v", label, a.Scalar, b.Scalar)
		}
	}
}

func TestDifferentialRandomCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	records := randomRecords(t, rng, 120)
	for _, n := range []int{2, 8} {
		c1, cn := buildPair(t, records, n)

		// Random structural queries drawn from stored records (usually
		// non-empty answers) plus their aggregations.
		for trial := 0; trial < 40; trial++ {
			rec := records[rng.Intn(len(records))]
			elems := rec.Elements()
			g := graph.NewGraph()
			for i, m := 0, 1+rng.Intn(4); i < m; i++ {
				g.AddElement(elems[rng.Intn(len(elems))])
			}
			diffMatch(t, c1, cn, query.NewGraphQuery(g))
			f := []query.AggFunc{query.Sum, query.Min, query.Max, query.Count}[trial%4]
			diffAgg(t, c1, cn, query.NewPathAggQuery(g, f))
		}

		// Deletions must mask the same global ids on both sides.
		for _, id := range []uint32{3, 17, 44, 101} {
			if _, err := c1.Delete(id); err != nil {
				t.Fatal(err)
			}
			if _, err := cn.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		diffMatch(t, c1, cn, query.NewGraphQuery(gpath.Closed("A0", "B0").ToGraph()))
	}
}

// extremeRecords adds what randomRecords' pool leaves out, on a path of its
// own (X0→X1→X2): every pairing of ±MaxFloat64 (sums overflow to ±Inf),
// signed zeros, an ordinary value and a bare element (present structurally,
// no measure: the path folds to NULL, reported as NaN).
func extremeRecords(t testing.TB) []*graph.Record {
	t.Helper()
	const bare = 12345.0
	pool := []float64{math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1), 0, 1, bare}
	set := func(rec *graph.Record, from, to string, v float64) {
		if v == bare {
			rec.AddBareElement(graph.E(from, to))
		} else if err := rec.SetEdge(from, to, v); err != nil {
			t.Fatal(err)
		}
	}
	var out []*graph.Record
	for _, a := range pool {
		for _, b := range pool {
			rec := graph.NewRecord()
			set(rec, "X0", "X1", a)
			set(rec, "X1", "X2", b)
			out = append(out, rec)
		}
	}
	return out
}

// TestDifferentialBatchesAndScanTotals drives the query-major batch path
// against the single-shard executor at every shard count × worker count the
// pool treats differently (one worker: the caller's goroutine; fewer workers
// than queries; more workers than queries): answers, aggregate cells (by
// Float64bits), error slots and scan totals must agree, with deleted records,
// an element no record has, an empty query and a panicking query in the
// batch — the last two failing alone in their slots.
func TestDifferentialBatchesAndScanTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := append(randomRecords(t, rng, 80), extremeRecords(t)...)

	var graphQs []*query.GraphQuery
	var aggQs []*query.PathAggQuery
	for trial := 0; trial < 24; trial++ {
		rec := records[rng.Intn(len(records))]
		elems := rec.Elements()
		g := graph.NewGraph()
		for i, m := 0, 1+rng.Intn(3); i < m; i++ {
			g.AddElement(elems[rng.Intn(len(elems))])
		}
		graphQs = append(graphQs, query.NewGraphQuery(g))
		aggQs = append(aggQs, query.NewPathAggQuery(g, query.Sum))
	}
	extreme := gpath.Closed("X0", "X1", "X2").ToGraph()
	for i, f := range []query.AggFunc{query.Sum, query.Min, query.Max} {
		graphQs[20+i], aggQs[20+i] = query.NewGraphQuery(extreme), query.NewPathAggQuery(extreme, f)
	}
	// An element no record has: empty answers, same sentinel handling.
	unknown := gpath.Closed("A0", "B0", "Z9").ToGraph()
	graphQs[3], aggQs[3] = query.NewGraphQuery(unknown), query.NewPathAggQuery(unknown, query.Sum)
	// An empty query in the middle: only its slot errors.
	const emptyAt = 11
	graphQs[emptyAt], aggQs[emptyAt] = query.NewGraphQuery(graph.NewGraph()), query.NewPathAggQuery(graph.NewGraph(), query.Sum)
	// The same aggregates with one query whose fold panics wherever a record
	// matches. It runs apart from the scan totals: a failed query stops at
	// its first failing shard, so what it had scanned by then differs.
	const panicAt = 17
	faulty := append([]*query.PathAggQuery(nil), aggQs...)
	faulty[panicAt] = query.NewPathAggQuery(gpath.Closed("A0", "B0").ToGraph(), query.AggFunc{
		Name: "BOOM", Lift: func(v float64) float64 { return v },
		Fold: func(a, b float64) float64 { panic("kernel exploded") },
	})

	sameErrors := func(label string, errs1, errsn []error, failing ...int) {
		t.Helper()
		for i := range errs1 {
			if (errs1[i] == nil) != (errsn[i] == nil) || (errs1[i] != nil && errs1[i].Error() != errsn[i].Error()) {
				t.Fatalf("%s %d: errors diverge: %v vs %v", label, i, errs1[i], errsn[i])
			}
			if want := slices.Contains(failing, i); (errsn[i] != nil) != want {
				t.Fatalf("%s %d: err = %v, want failure: %v", label, i, errsn[i], want)
			}
		}
	}

	for _, n := range []int{2, 3, 8} {
		c1, cn := buildPair(t, records, n)
		for _, id := range []uint32{0, 5, 17, 44, 81, 101, 115} {
			if _, err := c1.Delete(id); err != nil {
				t.Fatal(err)
			}
			if _, err := cn.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 5, len(graphQs) + 9} {
			label := fmt.Sprintf("shards=%d workers=%d", n, workers)
			res1, errs1 := c1.ExecuteGraphBatchContext(context.Background(), graphQs, workers)
			resn, errsn := cn.ExecuteGraphBatchContext(context.Background(), graphQs, workers)
			sameErrors(label+" batch", errs1, errsn, emptyAt)
			for i := range graphQs {
				if errs1[i] == nil && !res1[i].Answer.Equals(resn[i].Answer) {
					t.Fatalf("%s batch %d: answers diverge", label, i)
				}
			}
			if !resn[3].Answer.IsEmpty() {
				t.Fatalf("%s: a query over an unknown element matched %d records", label, resn[3].NumRecords())
			}

			// MeasuresScanned totals: measure the aggregation batch alone on
			// both sides; the shard partition must scan each record's
			// measures exactly once, so the deltas agree exactly.
			start1, startn := c1.IOStats(), cn.IOStats()
			ares1, aerrs1 := c1.ExecutePathAggBatchContext(context.Background(), aggQs, workers)
			aresn, aerrsn := cn.ExecutePathAggBatchContext(context.Background(), aggQs, workers)
			sameErrors(label+" agg batch", aerrs1, aerrsn, emptyAt)
			for i := range aggQs {
				if aerrs1[i] == nil {
					assertAggEqual(t, label+" "+aggQs[i].String(), ares1[i], aresn[i])
				}
			}
			s1, sn := c1.IOStats().Sub(start1), cn.IOStats().Sub(startn)
			if s1.MeasuresScanned != sn.MeasuresScanned {
				t.Fatalf("%s: MeasuresScanned diverges: 1-shard %d, n-shard %d", label, s1.MeasuresScanned, sn.MeasuresScanned)
			}
			if s1.RecordsReturned != sn.RecordsReturned {
				t.Fatalf("%s: RecordsReturned diverges: 1-shard %d, n-shard %d", label, s1.RecordsReturned, sn.RecordsReturned)
			}

			fres1, ferrs1 := c1.ExecutePathAggBatchContext(context.Background(), faulty, workers)
			fresn, ferrsn := cn.ExecutePathAggBatchContext(context.Background(), faulty, workers)
			sameErrors(label+" faulty batch", ferrs1, ferrsn, emptyAt, panicAt)
			if !strings.Contains(ferrsn[panicAt].Error(), "panicked") {
				t.Fatalf("%s: panicking slot reports %v", label, ferrsn[panicAt])
			}
			for i := range faulty {
				if ferrs1[i] == nil {
					assertAggEqual(t, label+" beside the panic "+faulty[i].String(), fres1[i], fresn[i])
				}
			}
		}
	}

	// The corpus must have produced what the merge could get wrong.
	var nan, negZero, inf bool
	_, cn := buildPair(t, records, 3)
	ares, _ := cn.ExecutePathAggBatchContext(context.Background(), aggQs, 2)
	for _, r := range ares {
		if r == nil {
			continue
		}
		for _, row := range r.Values {
			for _, v := range row {
				nan = nan || math.IsNaN(v)
				inf = inf || math.IsInf(v, 0)
				negZero = negZero || (v == 0 && math.Signbit(v))
			}
		}
	}
	if !nan || !negZero || !inf {
		t.Fatalf("corpus too tame: NaN cell %v, -0 cell %v, ±Inf cell %v", nan, negZero, inf)
	}
}

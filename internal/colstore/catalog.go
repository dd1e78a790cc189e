package colstore

import (
	"cmp"
	"slices"
	"strings"
)

// ViewCatalog is an immutable index over a relation's materialized views: the
// one place query-time rewriting (the §5.3 graph-view cover, the §5.1.2
// aggregate-view path cover) and every view listing read the view set from.
// Every change to the view set builds a fresh catalog under the relation's
// write lock and publishes it through an atomic pointer, so readers reach it
// without a lock and it never changes under them. The view columns it points
// at are still maintained in place as records arrive: reading a view's bits
// or sizes needs the read lock like any other column.
type ViewCatalog struct {
	views    []*GraphView     // by name
	aggViews []*AggregateView // by name
	// postings holds the catalog position of every view — position i <
	// len(views) is views[i], position len(views)+j is aggViews[j] —
	// ordered by the view's smallest edge, then by position; minEdge[k] is
	// the smallest edge of the view at postings[k]. A view whose edges all
	// lie in a query is found exactly once, from its smallest edge.
	minEdge  []EdgeID
	postings []int32
	// chains indexes the aggregate views of each (function, measure) by
	// first path edge.
	chains map[chainKey]AggChains
}

type chainKey struct{ fn, measure string }

// AggChains indexes the aggregate views of one function over one measure by
// their first path edge: the candidates the path cover tries at one
// position, in the order it tries them.
type AggChains struct {
	first []EdgeID         // ascending; first[i] is views[i].Path[0]
	views []*AggregateView // one first edge's views longest first, then by name
}

// From returns the views whose path starts at e, longest first, then by
// name.
//
//grove:hotpath
func (c AggChains) From(e EdgeID) []*AggregateView {
	lo, hi := equalRange(c.first, e)
	return c.views[lo:hi]
}

// equalRange returns the bounds of the run of e in the ascending keys.
//
//grove:hotpath
func equalRange(keys []EdgeID, e EdgeID) (lo, hi int) {
	lo, _ = slices.BinarySearch(keys, e)
	for hi = lo; hi < len(keys) && keys[hi] == e; hi++ {
	}
	return lo, hi
}

var emptyCatalog = &ViewCatalog{}

// buildCatalog indexes views and aggViews, each sorted by name. The catalog
// keeps both slices, so neither may be modified afterwards. It costs
// O(total view edges + views × log views).
func buildCatalog(views []*GraphView, aggViews []*AggregateView) *ViewCatalog {
	if len(views)+len(aggViews) == 0 {
		return emptyCatalog
	}
	c := &ViewCatalog{views: views, aggViews: aggViews}

	keyed := make([]uint64, 0, len(views)+len(aggViews)) // smallest edge, position
	for i, v := range views {
		keyed = append(keyed, uint64(slices.Min(v.Edges))<<32|uint64(i))
	}
	for j, v := range aggViews {
		keyed = append(keyed, uint64(slices.Min(v.Path))<<32|uint64(len(views)+j))
	}
	slices.Sort(keyed)
	c.minEdge = make([]EdgeID, len(keyed))
	c.postings = make([]int32, len(keyed))
	for k, key := range keyed {
		c.minEdge[k], c.postings[k] = EdgeID(key>>32), int32(uint32(key))
	}

	// Group the aggregate views by (function, measure); order each group by
	// first edge on integer keys (first edge, name position), then each run
	// sharing a first edge stably by length, longest first, which keeps
	// equal lengths in name order.
	groups := make(map[chainKey][]uint64)
	for j, v := range aggViews {
		k := chainKey{v.Func, v.MeasureName}
		groups[k] = append(groups[k], uint64(v.Path[0])<<32|uint64(j))
	}
	c.chains = make(map[chainKey]AggChains, len(groups))
	for k, keys := range groups {
		slices.Sort(keys)
		ch := AggChains{first: make([]EdgeID, len(keys)), views: make([]*AggregateView, len(keys))}
		for i, key := range keys {
			ch.first[i], ch.views[i] = EdgeID(key>>32), aggViews[uint32(key)]
		}
		for lo := 0; lo < len(keys); {
			_, hi := equalRange(ch.first, ch.first[lo])
			slices.SortStableFunc(ch.views[lo:hi], func(a, b *AggregateView) int { return cmp.Compare(len(b.Path), len(a.Path)) })
			lo = hi
		}
		c.chains[k] = ch
	}
	return c
}

// Len returns the number of views, graph and aggregate.
//
//grove:hotpath
func (c *ViewCatalog) Len() int { return len(c.views) + len(c.aggViews) }

// Postings returns the catalog positions of the views whose smallest edge is
// e, ascending (see Entry).
//
//grove:hotpath
func (c *ViewCatalog) Postings(e EdgeID) []int32 {
	lo, hi := equalRange(c.minEdge, e)
	return c.postings[lo:hi]
}

// Entry returns the view at catalog position pos — graph views first, then
// aggregate views, each by name: its name, its edges (a graph view's sorted
// set, an aggregate view's path) and whether it is an aggregate view.
//
//grove:hotpath
func (c *ViewCatalog) Entry(pos int32) (name string, edges []EdgeID, isAgg bool) {
	if i := int(pos); i < len(c.views) {
		v := c.views[i]
		return v.Name, v.Edges, false
	}
	v := c.aggViews[int(pos)-len(c.views)]
	return v.Name, v.Path, true
}

// AggViewsFrom returns the aggregate views of function fn over measure
// ("" = default), indexed by first path edge (empty when there are none).
//
//grove:hotpath
func (c *ViewCatalog) AggViewsFrom(fn, measure string) AggChains {
	return c.chains[chainKey{fn, measure}]
}

// inserted returns a copy of s with v at index i.
func inserted[T any](s []T, i int, v T) []T {
	return append(append(append(make([]T, 0, len(s)+1), s[:i]...), v), s[i:]...)
}

// view returns the graph view called name, or nil and the index it would
// take.
func (c *ViewCatalog) view(name string) (*GraphView, int) {
	i, ok := slices.BinarySearchFunc(c.views, name, func(v *GraphView, n string) int { return strings.Compare(v.Name, n) })
	if !ok {
		return nil, i
	}
	return c.views[i], i
}

// aggView is view for aggregate views.
func (c *ViewCatalog) aggView(name string) (*AggregateView, int) {
	i, ok := slices.BinarySearchFunc(c.aggViews, name, func(v *AggregateView, n string) int { return strings.Compare(v.Name, n) })
	if !ok {
		return nil, i
	}
	return c.aggViews[i], i
}

// Catalog returns the relation's current view catalog. A catalog never
// changes once published; a reader holding the read lock sees the same one
// for the whole query.
//
//grove:hotpath
func (r *Relation) Catalog() *ViewCatalog { return r.catalog.Load() }

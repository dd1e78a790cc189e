package grove

import (
	"reflect"
	"slices"
	"testing"

	"grove/internal/colstore"
	"grove/internal/shard"
)

// storeMethods is the whole exported surface of *Store. Adding or removing a
// method must edit this list: the surface grows only on purpose.
var storeMethods = []string{
	"Add", "AdviseGraphViews", "Aggregate", "AggregateBatch", "Append",
	"AppendBareEdge", "AppendEdge", "Close", "ClusterColumns", "Delete",
	"DisableTracing", "DropAllViews", "EnableTracing", "EnableWAL", "Execute",
	"ExecuteBatch", "ExecuteStatements", "Explain", "ExplainAnalyze",
	"ExportTraces", "GetRecord", "IOStatsSnapshot", "ImportTraces", "Match",
	"MaterializeAggViewPath", "MaterializeAggViews", "MaterializeGraphViews",
	"MaterializeView", "Metrics", "NumRecords", "Optimize", "RecentTraces",
	"RecordWorkload", "RenderAdvice", "ReplayWorkload", "Save", "ServeMetrics",
	"SetPageCacheBytes", "Stats", "StorageStats", "SummarizeByTag", "SyncWAL",
	"Tag", "TaggedWith", "Undelete", "WALStats",
}

func TestStoreMethodSet(t *testing.T) {
	typ := reflect.TypeOf((*Store)(nil))
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	want := slices.Clone(storeMethods)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Store methods changed:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}

// optionCtor opens a store through one constructor path, loaded with the
// loadSCMOrders records and a graph view "vADE" over A→D→E.
type optionCtor struct {
	name string
	open func(t *testing.T, dir string, opts ...Option) *Store
}

func optionCtors() []optionCtor {
	prepare := func(t *testing.T, st *Store) *Store {
		t.Helper()
		loadSCMOrders(t, st)
		if err := st.MaterializeView("vADE", PathOf("A", "D", "E").ToGraph()); err != nil {
			t.Fatal(err)
		}
		return st
	}
	saved := func(t *testing.T, dir string) {
		t.Helper()
		if err := prepare(t, Open()).Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	wal := WALConfig{Policy: SyncNever}
	durable := func(t *testing.T, dir string, opts []Option) *Store {
		t.Helper()
		st, err := OpenDurable(dir, wal, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return []optionCtor{
		{"Open", func(t *testing.T, _ string, opts ...Option) *Store {
			return prepare(t, Open(opts...))
		}},
		{"NewSharded(3)", func(t *testing.T, _ string, opts ...Option) *Store {
			return prepare(t, NewSharded(3, opts...))
		}},
		{"LoadStore", func(t *testing.T, dir string, opts ...Option) *Store {
			saved(t, dir)
			st, err := LoadStore(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"OpenDurable/fresh", func(t *testing.T, dir string, opts ...Option) *Store {
			return prepare(t, durable(t, dir, opts))
		}},
		{"OpenDurable/existing", func(t *testing.T, dir string, opts ...Option) *Store {
			saved(t, dir)
			return durable(t, dir, opts)
		}},
	}
}

// TestConstructionOptions checks that each construction option takes effect
// on every constructor, and that the store built without it behaves as the
// default says.
func TestConstructionOptions(t *testing.T) {
	const keep = colstore.DefaultSnapshotKeep + 1
	viewQuery := PathOf("A", "D", "E", "G").ToGraph()

	viewsUsed := func(t *testing.T, st *Store) int {
		ex, err := st.Explain(viewQuery)
		if err != nil {
			t.Fatal(err)
		}
		return len(ex.Views)
	}
	generations := func(t *testing.T, st *Store, dir string) int {
		for i := 0; i < keep+2; i++ {
			rec := NewRecord()
			if err := rec.SetEdge("X", "Y", float64(i)); err != nil {
				t.Fatal(err)
			}
			st.Add(rec)
			if err := st.Save(dir); err != nil {
				t.Fatal(err)
			}
		}
		dirs, _, err := shard.ShardDirs(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := -1
		for _, d := range dirs {
			gens, err := Generations(d)
			if err != nil {
				t.Fatal(err)
			}
			if n >= 0 && len(gens) != n {
				t.Fatalf("shards keep %d and %d generations", n, len(gens))
			}
			n = len(gens)
		}
		return n
	}

	for _, c := range optionCtors() {
		t.Run(c.name, func(t *testing.T) {
			t.Run("defaults", func(t *testing.T) {
				if viewsUsed(t, c.open(t, t.TempDir())) == 0 {
					t.Error("no view used by default")
				}
			})
			t.Run("WithoutViews", func(t *testing.T) {
				if n := viewsUsed(t, c.open(t, t.TempDir(), WithoutViews())); n != 0 {
					t.Errorf("Explain uses %d views", n)
				}
			})
			t.Run("WithSnapshotKeep", func(t *testing.T) {
				// A loaded store also protects the generation it loaded, so
				// compare against the same constructor at the default.
				plain, kept := t.TempDir(), t.TempDir()
				base := generations(t, c.open(t, plain), plain)
				n := generations(t, c.open(t, kept, WithSnapshotKeep(keep)), kept)
				if n-base != keep-colstore.DefaultSnapshotKeep || n < keep {
					t.Errorf("kept %d generations, %d at the default keep of %d; want %d more",
						n, base, colstore.DefaultSnapshotKeep, keep-colstore.DefaultSnapshotKeep)
				}
			})
		})
	}
}

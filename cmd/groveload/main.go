// Command groveload builds a grove store directory that grovecli and library
// users can open — either by synthesizing a dataset (NY-like or GNU-like,
// §7.1) or by importing a JSONL trace file.
//
// Usage:
//
//	groveload -out /tmp/ny -records 100000
//	groveload -out /tmp/gnu -records 50000 -dataset gnu -seed 7
//	groveload -out /tmp/prod -input traces.jsonl
//	groveload -out /tmp/big -records 200000 -shards 8   # sharded layout
//	groveload -out /tmp/dur -records 100000 -fsync always  # ingest through the WAL
//
// With -fsync POLICY (always | interval | never) the ingest runs write-ahead
// logged under that fsync policy — every record goes through the durable
// Append path before the final checkpoint folds the log into the snapshot —
// exercising exactly the code path a crash-safe production ingest uses.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"grove"
	"grove/internal/workload"
)

func main() {
	var (
		out     = flag.String("out", "", "output directory (required)")
		input   = flag.String("input", "", "JSONL trace file to import instead of synthesizing")
		dataset = flag.String("dataset", "ny", "dataset family: ny | gnu")
		records = flag.Int("records", 10000, "number of graph records")
		domain  = flag.Int("domain", 1000, "edge-domain size")
		minE    = flag.Int("min", 0, "min edges per record (0 = family default)")
		maxE    = flag.Int("max", 0, "max edges per record (0 = family default)")
		seed    = flag.Int64("seed", 42, "generator seed")
		keep    = flag.Int("keep", 0, "snapshot generations to retain on disk (0 = default)")
		shards  = flag.Int("shards", 1, "shards to partition the store into")
		fsync   = flag.String("fsync", "", "write-ahead log the ingest under this fsync policy: always | interval | never (empty = no WAL)")
	)
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "groveload: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "groveload: -shards must be >= 1")
		os.Exit(2)
	}
	walled := *fsync != ""
	var walCfg grove.WALConfig
	if walled {
		pol, err := grove.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "groveload:", err)
			os.Exit(2)
		}
		walCfg = grove.WALConfig{Policy: pol}
	}

	if *input != "" {
		importTraces(*input, *out, *keep, *shards, walled, walCfg)
		return
	}

	var spec workload.DatasetSpec
	switch *dataset {
	case "ny":
		spec = workload.NYSpec(*records, *seed)
	case "gnu":
		spec = workload.GNUSpec(*records, *seed)
	default:
		fmt.Fprintf(os.Stderr, "groveload: unknown dataset family %q (ny|gnu)\n", *dataset)
		os.Exit(2)
	}
	spec.EdgeDomain = *domain
	if *minE > 0 {
		spec.MinEdges = *minE
	}
	if *maxE > 0 {
		spec.MaxEdges = *maxE
	}

	fmt.Fprintf(os.Stderr, "building %s dataset: %d records, %d-edge domain, %d shard(s) ...\n",
		spec.Name, spec.NumRecords, spec.EdgeDomain, *shards)
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "groveload:", err)
		os.Exit(1)
	}
	st := openStore(*out, *shards, walled, walCfg)
	for _, rec := range ds.Records {
		if _, err := st.Append(rec); err != nil {
			fmt.Fprintln(os.Stderr, "groveload:", err)
			os.Exit(1)
		}
	}
	saveStore(st, *out, *keep)
	sz, err := diskSize(*out)
	if err != nil {
		sz = -1
	}
	fmt.Println(ds.Stats)
	fmt.Printf("saved to %s (%.2f MB on disk)\n", *out, float64(sz)/(1<<20))
}

// diskSize totals every file under dir, whatever the store layout.
func diskSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// openStore creates the store every ingest goes through. With walled set,
// EnableWAL bootstraps out with an empty snapshot and fresh logs first, so
// every record takes the logged Append path.
func openStore(out string, shards int, walled bool, walCfg grove.WALConfig) *grove.Store {
	st := grove.NewSharded(shards)
	if walled {
		if err := st.EnableWAL(out, walCfg); err != nil {
			fmt.Fprintln(os.Stderr, "groveload:", err)
			os.Exit(1)
		}
	}
	return st
}

// saveStore commits the ingested store to out through Store.Save — the one
// save path, whatever the shard count; on a WAL-logged store it is the
// checkpoint that folds the log into the snapshot.
func saveStore(st *grove.Store, out string, keep int) {
	st.Optimize()
	st.SetSnapshotKeep(keep)
	if st.WALEnabled() {
		ws := st.WALStats()
		fmt.Fprintf(os.Stderr, "wal: %d appends, %d bytes, %d fsyncs (policy %s)\n",
			ws.Appends, ws.AppendedBytes, ws.Fsyncs, ws.Policy)
	}
	if err := st.Save(out); err != nil {
		fmt.Fprintln(os.Stderr, "groveload:", err)
		os.Exit(1)
	}
}

func importTraces(input, out string, keep, shards int, walled bool, walCfg grove.WALConfig) {
	f, err := os.Open(input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "groveload:", err)
		os.Exit(1)
	}
	defer f.Close()
	st := openStore(out, shards, walled, walCfg)
	n, err := st.ImportTraces(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "groveload:", err)
		os.Exit(1)
	}
	saveStore(st, out, keep)
	fmt.Printf("imported %d trace records (%d distinct edges) into %s\n",
		n, st.NumEdges(), out)
}

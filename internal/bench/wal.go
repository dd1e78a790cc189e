package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"grove"
	"grove/internal/workload"
)

// walMaxRecords caps the WAL sweep's dataset: SyncAlways pays one fsync per
// sequential append, so the full NYRecords scale would measure the disk, not
// the sweep's relative shape.
const walMaxRecords = 5000

// ExpWAL measures what each fsync policy costs on the ingest path and proves
// what it buys on the recovery path. For every policy the same records are
// appended through a write-ahead-logged store; then, instead of
// checkpointing, the store is abandoned exactly as a crash would leave it —
// bootstrap snapshot plus log — and recovered with LoadStore. The recovered
// store must hold every record and answer a probe workload bit-identically
// to a never-crashed baseline, which also exercises incremental view
// maintenance on the replay path.
func ExpWAL(ctx context.Context, sc Scale) (*Table, error) {
	n := sc.NYRecords
	if n > walMaxRecords {
		n = walMaxRecords
	}
	spec := workload.NYSpec(n, sc.Seed)
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	records := ds.Records
	graphs := ds.Gen.UniformQueries(8, 8)

	// No-WAL baseline: the same sequential ingest with nothing logged, and
	// the reference answers recovery must reproduce.
	base := grove.NewSharded(1)
	start := time.Now()
	for _, rec := range records {
		base.Add(rec)
	}
	baseDur := time.Since(start)
	baseline := make([]*grove.Result, len(graphs))
	for i, g := range graphs {
		if baseline[i], err = base.MatchContext(ctx, g); err != nil {
			return nil, err
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Write-ahead log: %d records ingested per fsync policy, then crash-recovered",
			len(records)),
		Columns: []string{"Policy", "Ingest (ms)", "Ingest (rec/s)", "vs no-WAL", "Fsyncs", "Recover (ms)", "Replayed", "Verified"},
	}
	t.AddRow("(no wal)",
		fmtMS(float64(baseDur.Microseconds())/1000),
		fmt.Sprintf("%.0f", float64(len(records))/baseDur.Seconds()),
		"1.00x", "0", "-", "-", "-")

	for _, pol := range []grove.SyncPolicy{grove.SyncNever, grove.SyncInterval, grove.SyncAlways} {
		dir, err := os.MkdirTemp("", "grove-wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		st := grove.NewSharded(1)
		if err := st.EnableWAL(dir, grove.WALConfig{Policy: pol}); err != nil {
			return nil, err
		}
		start := time.Now()
		for _, rec := range records {
			if _, err := st.Append(rec); err != nil {
				return nil, err
			}
		}
		d := time.Since(start)
		// Flush the tail (a no-op under SyncAlways), then abandon the store
		// without checkpointing: the directory now holds exactly what a
		// crash after the last acknowledged fsync leaves behind.
		if err := st.SyncWAL(); err != nil {
			return nil, err
		}
		fsyncs := st.WALStats().Fsyncs

		recStart := time.Now()
		rec, err := grove.LoadStore(dir)
		if err != nil {
			return nil, fmt.Errorf("bench: wal %s: recovery load: %w", pol, err)
		}
		recDur := time.Since(recStart)
		replayed := rec.WALStats().ReplayedOps
		if got := rec.NumRecords(); got != len(records) {
			return nil, fmt.Errorf("bench: wal %s: recovered %d of %d records", pol, got, len(records))
		}
		for i, g := range graphs {
			res, err := rec.MatchContext(ctx, g)
			if err != nil {
				return nil, err
			}
			if !res.Answer.Equals(baseline[i].Answer) {
				return nil, fmt.Errorf("bench: wal %s: recovered answer %d differs from never-crashed baseline", pol, i)
			}
		}

		t.AddRow(pol.String(),
			fmtMS(float64(d.Microseconds())/1000),
			fmt.Sprintf("%.0f", float64(len(records))/d.Seconds()),
			fmt.Sprintf("%.2fx", float64(d)/float64(baseDur)),
			fmt.Sprint(fsyncs),
			fmtMS(float64(recDur.Microseconds())/1000),
			fmt.Sprint(replayed),
			"ok")
	}
	t.AddNote("every policy's recovered store held all records and answered the probe workload bit-identically to the never-crashed baseline")
	return t, nil
}

package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"grove"
	"grove/internal/workload"
)

// replayShardCounts is the sweep of the self-contained replay experiment:
// the recording baseline plus resharded configurations.
var replayShardCounts = []int{1, 2, 4}

// ExpReplay exercises the workload recorder end to end. Self-contained mode
// (no -replay-log): load the NY dataset into a single-shard store, execute a
// mixed workload — graph matches and path aggregations — with recording on,
// then replay the captured JSONL log against fresh stores at 1, 2 and 4
// shards, verifying every replayed answer's FNV-1a digest against the
// recorded one (answers are bit-identical across shard counts, so every
// digest must match). With Scale.ReplayLog set, it instead replays that
// captured log against the store at Scale.ReplayStore — re-executing a
// production capture against any store configuration.
func ExpReplay(ctx context.Context, sc Scale) (*Table, error) {
	if sc.ReplayLog != "" {
		return replayExternal(sc)
	}
	spec := workload.NYSpec(sc.NYRecords, sc.Seed)
	spec.KeepRecords = true
	ds, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	records := ds.Records
	graphs := ds.Gen.UniformQueries(sc.NumQueries, 8)

	dir, err := os.MkdirTemp("", "grove-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logPath := dir + "/workload.jsonl"

	load := func(n int) *grove.Store {
		st := grove.NewSharded(n)
		for _, rec := range records {
			st.Add(rec)
		}
		st.Optimize()
		return st
	}

	// Record the workload on the single-shard baseline.
	base := load(1)
	if err := base.StartWorkloadRecording(logPath); err != nil {
		return nil, err
	}
	recStart := time.Now()
	for i, g := range graphs {
		if i%2 == 0 {
			if _, err := base.MatchContext(ctx, g); err != nil {
				return nil, err
			}
		} else {
			if _, err := base.AggregateContext(ctx, g, grove.Sum); err != nil {
				return nil, err
			}
		}
	}
	recDur := time.Since(recStart)
	if err := base.StopWorkloadRecording(); err != nil {
		return nil, err
	}
	events, err := grove.ReadWorkloadLog(logPath)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Workload record→replay: %d records, %d recorded queries",
			len(records), sc.NumQueries),
		Columns: []string{"Shards", "Replayed", "Verified", "Mismatched", "Replay (ms)"},
	}
	for _, n := range replayShardCounts {
		st := load(n)
		start := time.Now()
		stats, err := st.ReplayWorkload(events)
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		if stats.Mismatched != 0 {
			return nil, fmt.Errorf("bench: replay on %d shard(s): %d digest mismatches — replayed answers must be bit-identical to the recording", n, stats.Mismatched)
		}
		if stats.Verified != stats.Replayed {
			return nil, fmt.Errorf("bench: replay on %d shard(s): only %d/%d replayed events carried a verifiable digest", n, stats.Verified, stats.Replayed)
		}
		t.AddRow(fmt.Sprint(n), fmt.Sprint(stats.Replayed), fmt.Sprint(stats.Verified),
			fmt.Sprint(stats.Mismatched), fmtMS(float64(d.Microseconds())/1000))
	}
	t.AddNote(fmt.Sprintf("recording run took %s; every replayed digest matched on every shard count", recDur.Round(time.Millisecond)))
	return t, nil
}

// replayExternal replays a captured workload log against a saved store.
func replayExternal(sc Scale) (*Table, error) {
	if sc.ReplayStore == "" {
		return nil, fmt.Errorf("bench: replay: -replay-log needs -replay-store (the saved store directory to replay against)")
	}
	events, err := grove.ReadWorkloadLog(sc.ReplayLog)
	if err != nil {
		return nil, err
	}
	st, err := grove.LoadStore(sc.ReplayStore)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stats, err := st.ReplayWorkload(events)
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	t := &Table{
		Title:   fmt.Sprintf("Workload replay: %s against %s (%d shard(s))", sc.ReplayLog, sc.ReplayStore, st.Stats().Shards),
		Columns: []string{"Events", "Replayed", "Skipped", "Verified", "Mismatched", "Replay (ms)"},
	}
	t.AddRow(fmt.Sprint(stats.Queries), fmt.Sprint(stats.Replayed), fmt.Sprint(stats.Skipped),
		fmt.Sprint(stats.Verified), fmt.Sprint(stats.Mismatched), fmtMS(float64(d.Microseconds())/1000))
	if stats.Mismatched != 0 {
		t.AddNote("DIGEST MISMATCHES: the store's answers differ from the recorded ones")
	}
	return t, nil
}

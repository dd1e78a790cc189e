package shard

import (
	"fmt"
	"time"

	"grove/internal/fsio"
	"grove/internal/obs"
	"grove/internal/wal"
)

// Write-ahead logging across the shard layer: one log per shard, next to
// that shard's snapshot store (walPath). Mutators log and apply through
// Coordinator.mutate; this file attaches, replays, checkpoints and closes the
// logs.
//
// Cross-shard consistency: a checkpoint stalls ingest on every shard (all
// ingestMu held), commits one cut whose manifest records each log's LSN at
// that instant, and only after that commit point resets the logs. The
// manifest's generation pins + WAL LSNs mean a load can never mix a shard's
// snapshot with another cut's log frames: a log replays only over exactly the
// generation its header pins, starting at exactly the LSN the manifest
// recorded.
//
// Failure model: the log is the durability *floor*, never an availability
// ceiling. If an append or fsync fails, the log latches the error, stops
// recording (keeping the file a clean prefix of acknowledged ops) and the
// store keeps serving from memory; WALError surfaces the condition.

// walState is the attached-log bundle, swapped in atomically so mutators on
// the hot path pay one pointer load when WAL is disabled.
type walState struct {
	fs   fsio.FS
	dir  string
	cfg  wal.Config
	logs []*wal.Log
}

// walAnchor captures, at load time, what a shard's in-memory state
// corresponds to on disk: the LSN replay stopped at, how many ops were
// replayed, and the relation's version counter right afterwards. EnableWAL
// uses it to tell "still exactly snapshot+log" (cheap attach) from "mutated
// since load" (must checkpoint first).
type walAnchor struct {
	nextLSN uint64
	applied int
	version uint64
}

// WALEnabled reports whether a write-ahead log is attached.
func (c *Coordinator) WALEnabled() bool { return c.wal.Load() != nil }

// WALDir returns the directory the attached log extends ("" when disabled).
func (c *Coordinator) WALDir() string {
	if w := c.wal.Load(); w != nil {
		return w.dir
	}
	return ""
}

// WALError returns the first sticky log failure across the shards: non-nil
// means some suffix of acknowledged ops is not reaching the disk and the
// operator should checkpoint and re-enable.
func (c *Coordinator) WALError() error {
	w := c.wal.Load()
	if w == nil {
		return nil
	}
	for i, l := range w.logs {
		if err := l.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// WALStats aggregates the per-shard log counters plus the replay counters of
// the last load.
type WALStats struct {
	Enabled bool
	Policy  string
	// Appends/AppendedBytes/Fsyncs/Resets sum the per-shard counters.
	Appends, AppendedBytes, Fsyncs, Resets int64
	// ReplayedOps counts ops re-applied at load; SkippedLogs counts logs
	// ignored at load (stale generation, corrupt header, LSN mismatch).
	ReplayedOps, SkippedLogs int64
	// Shards holds each log's own snapshot, indexed by shard.
	Shards []wal.Stats
}

// WALStats snapshots the write-ahead log counters (zero-valued when WAL is
// off, except the replay counters which survive from load time).
func (c *Coordinator) WALStats() WALStats {
	st := WALStats{
		ReplayedOps: c.walReplayed.Load(),
		SkippedLogs: c.walSkipped.Load(),
	}
	w := c.wal.Load()
	if w == nil {
		return st
	}
	st.Enabled = true
	st.Policy = w.cfg.Policy.String()
	st.Shards = make([]wal.Stats, len(w.logs))
	for i, l := range w.logs {
		s := l.Stats()
		st.Shards[i] = s
		st.Appends += s.Appends
		st.AppendedBytes += s.AppendedBytes
		st.Fsyncs += s.Fsyncs
		st.Resets += s.Resets
	}
	return st
}

// --- replay -----------------------------------------------------------------

// ReplayWALFS replays each shard's write-ahead log atop its loaded snapshot.
// pinned, when non-nil, is the manifest's per-shard replay LSN floor: a log
// whose BaseLSN disagrees belongs to a different cut and is skipped. Shards
// replay sequentially in index order so registry edge-id assignment is
// deterministic — a store replayed at 1 shard and at N shards yields
// identical global state.
//
// Replay is read-only on the filesystem: torn tails are detected and ignored
// here, truncated later by EnableWAL (the writer). A log pinned to a
// generation other than the one actually loaded is skipped entirely — its
// ops are either already inside the newer snapshot or belong to a cut that
// was rolled back; applying them would double-apply or corrupt. Valid frames
// run through applyOp, the live mutators' own in-memory path, so replay
// maintains views incrementally the same way live ingest does.
//
// Every replay records one wal-replay trace with a wal-scan span (file read +
// frame decode) and a wal-apply span per shard.
func (c *Coordinator) ReplayWALFS(fs fsio.FS, dir string, pinned []uint64) error {
	n := len(c.units)
	anchors := make([]walAnchor, n)
	// Always traced: two clock reads per shard per load. The query-I/O
	// deltas stay zero — replay fetches no column through the tracker.
	root := obs.StartTrace(obs.KindWALReplay, dir, obs.IODelta{})
	root.SetShard(obs.ShardCoordinator)
	for i, u := range c.units {
		start := time.Now()
		res, err := wal.Scan(fs, walPath(dir, i, n))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		scanned := time.Now()
		root.AddSpan(obs.Span{Phase: obs.PhaseWALScan, Shard: i, DurationNanos: scanned.Sub(start).Nanoseconds()})
		gen := u.Rel.SourceGeneration()
		next := uint64(1)
		if pinned != nil && pinned[i] > 0 {
			next = pinned[i]
		}
		switch {
		case res.Missing():
			// No log: the snapshot is the whole state.
		case !res.HeaderOK, res.Header.Gen != gen,
			pinned != nil && pinned[i] > 0 && res.Header.BaseLSN != pinned[i]:
			// Unreadable identity, or a log extending some other snapshot
			// generation / cut: never apply a frame of it.
			c.walSkipped.Add(1)
		default:
			for _, op := range res.Ops {
				if _, _, err := applyOp(u, c.reg, op); err != nil {
					return fmt.Errorf("shard %d: wal replay of LSN %d: %w", i, op.LSN, err)
				}
			}
			c.walReplayed.Add(int64(len(res.Ops)))
			next = res.NextLSN
			anchors[i].applied = len(res.Ops)
		}
		anchors[i].nextLSN = next
		anchors[i].version = u.Rel.Version()
		root.AddSpan(obs.Span{Phase: obs.PhaseWALApply, Shard: i, DurationNanos: time.Since(scanned).Nanoseconds()})
	}
	// Replayed adds moved the record counts; resume round-robin placement
	// past them, exactly as NewFromRelations does for snapshot records.
	c.rr.Store(uint64(c.NumRecords()))
	c.walAnchor = anchors
	c.walLoadDir = dir
	// A load replays before anyone can attach a ring; SetTraces hands the
	// trace to the first ring attached afterwards.
	t := root.Finish(obs.IODelta{})
	if c.traces != nil {
		c.traces.Add(t)
	} else {
		c.replayTrace = &t
	}
	return nil
}

// --- attach -----------------------------------------------------------------

// AttachWAL enables write-ahead logging on the OS filesystem.
func (c *Coordinator) AttachWAL(dir string, cfg wal.Config) error {
	return c.AttachWALFS(fsio.OS(), dir, cfg)
}

// AttachWALFS enables write-ahead logging under dir. When the in-memory
// state is still exactly "snapshot + replayed log" from a Load of the same
// dir, the existing logs are resumed in place (truncating any torn tail);
// otherwise — a fresh store, a different directory, or mutations since load
// — the store is checkpointed first so the logs start empty atop a snapshot
// that fully covers memory. Either way, after AttachWALFS returns every
// acknowledged mutation is recoverable per the configured fsync policy.
func (c *Coordinator) AttachWALFS(fs fsio.FS, dir string, cfg wal.Config) error {
	c.saveMu.Lock() //grovevet:ignore lockorder attach is a setup-time operation; holding saveMu across its fsio work is the point
	defer c.saveMu.Unlock()
	if c.wal.Load() != nil {
		return fmt.Errorf("shard: write-ahead log already enabled (dir %s)", c.WALDir())
	}
	n := len(c.units)

	// Decide cheap resume vs checkpoint: every shard must still be exactly
	// what load left it (no mutations — version counters unchanged), in the
	// same directory, and its on-disk log must be resumable (matches what
	// replay consumed) or absent with nothing replayed. A log that diverged
	// while replayed ops live only in memory forces the checkpoint path:
	// truncating it would lose them.
	resume := c.walAnchor != nil && dir == c.walLoadDir
	scans := make([]*wal.ScanResult, n)
	if resume {
		for i, u := range c.units {
			gen := u.Rel.SourceGeneration()
			if gen == "" || u.Rel.Version() != c.walAnchor[i].version {
				resume = false
				break
			}
			res, err := wal.Scan(fs, walPath(dir, i, n))
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			scans[i] = res
			ok := res.HeaderOK && res.Header.Gen == gen && res.NextLSN == c.walAnchor[i].nextLSN
			if !ok && !(res.Missing() && c.walAnchor[i].applied == 0) {
				resume = false
				break
			}
		}
	}
	if !resume {
		return c.checkpointLocked(fs, dir, cfg, nil)
	}

	logs := make([]*wal.Log, n)
	fail := func(err error) error {
		for _, l := range logs {
			if l != nil {
				l.Close() //grovevet:ignore droppederr attach is already failing; closing partial logs is best-effort cleanup
			}
		}
		return err
	}
	for i, u := range c.units {
		var err error
		if scans[i].Missing() {
			logs[i], err = wal.Create(fs, walPath(dir, i, n), uint32(i), u.Rel.SourceGeneration(), c.walAnchor[i].nextLSN, cfg)
		} else {
			logs[i], err = wal.OpenAt(fs, walPath(dir, i, n), scans[i], cfg)
		}
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
	}
	c.wal.Store(&walState{fs: fs, dir: dir, cfg: cfg, logs: logs})
	return nil
}

// --- checkpoint -------------------------------------------------------------

// Checkpoint folds the write-ahead log into a fresh snapshot cut: ingest
// stalls, the cut commits (commitCut, recording each log's cut LSN), and only
// then are the logs reset, pinned to the new generations. A crash at any
// point recovers the same state: before the commit point the old snapshot +
// old log still replay to it; after, the new snapshot alone (or plus whatever
// landed in the reset log) carries it.
func (c *Coordinator) Checkpoint() error {
	w := c.wal.Load()
	if w == nil {
		return fmt.Errorf("shard: checkpoint requires an attached write-ahead log")
	}
	c.saveMu.Lock() //grovevet:ignore lockorder saveMu serializes whole checkpoint cuts; it is expected to block on fsio for their duration
	defer c.saveMu.Unlock()
	return c.checkpointLocked(w.fs, w.dir, w.cfg, w)
}

// checkpointLocked is the body of Checkpoint; it also serves AttachWALFS's
// bootstrap (w == nil: no logs yet — create them pinned to the cut this call
// commits). Caller holds saveMu.
func (c *Coordinator) checkpointLocked(fs fsio.FS, dir string, cfg wal.Config, w *walState) error {
	// Stall ingest on every shard for the whole cut: the snapshot contents,
	// the manifest's LSNs and the log resets must describe one instant.
	// Writers block for the duration of the save — that is the documented
	// cost of a checkpoint (DESIGN.md §14).
	for _, u := range c.units {
		u.ingestMu.Lock() //grovevet:ignore lockorder the ingest stall across the snapshot write is the checkpoint's correctness mechanism
	}
	defer func() {
		for _, u := range c.units {
			u.ingestMu.Unlock()
		}
	}()

	var root *obs.ActiveTrace
	if c.traces != nil {
		root = obs.StartTrace(obs.KindWALCheckpoint, dir, c.ioNow())
		root.SetShard(obs.ShardCoordinator)
		root.Begin(obs.PhaseSnapshot, c.ioNow())
	}

	n := len(c.units)
	lsns := make([]uint64, n)
	for i := range lsns {
		switch {
		case w != nil:
			lsns[i] = w.logs[i].NextLSN()
		case c.walAnchor != nil:
			lsns[i] = c.walAnchor[i].nextLSN
		default:
			lsns[i] = 1
		}
	}
	gens, err := c.commitCut(fs, dir, lsns)
	if err != nil {
		return err
	}

	// Past the commit point: the new cut is durable, so the logs' frames are
	// dead weight. Reset each log pinned to its new generation (or create
	// them, on the attach-bootstrap path). A reset/create failure cannot
	// lose data — the snapshot covers everything — but it does leave that
	// shard without a working log, so the first error is surfaced after all
	// shards have been attempted.
	if root != nil {
		root.Begin(obs.PhaseWALTruncate, c.ioNow())
	}
	var firstErr error
	logs := make([]*wal.Log, n)
	for i := range c.units {
		var err error
		if w != nil {
			logs[i] = w.logs[i]
			err = w.logs[i].Reset(gens[i])
		} else {
			logs[i], err = wal.Create(fs, walPath(dir, i, n), uint32(i), gens[i], lsns[i], cfg)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if root != nil {
		c.traces.Add(root.Finish(c.ioNow()))
	}
	if w == nil {
		if firstErr != nil {
			for _, l := range logs {
				if l != nil {
					l.Close() //grovevet:ignore droppederr attach bootstrap is already failing; closing partial logs is best-effort cleanup
				}
			}
			return firstErr
		}
		c.wal.Store(&walState{fs: fs, dir: dir, cfg: cfg, logs: logs})
	}
	return firstErr
}

// SyncWAL forces an fsync on every shard's log regardless of policy; a
// no-op when WAL is disabled.
func (c *Coordinator) SyncWAL() error {
	w := c.wal.Load()
	if w == nil {
		return nil
	}
	var first error
	for i, l := range w.logs {
		if err := l.Sync(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// CloseWAL detaches and closes the logs (final fsync included). Mutations
// after CloseWAL are memory-only until the next Save.
func (c *Coordinator) CloseWAL() error {
	w := c.wal.Load()
	if w == nil {
		return nil
	}
	c.wal.Store(nil)
	var first error
	for _, l := range w.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

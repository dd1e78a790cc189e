package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
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
// store keeps serving from memory; Store.Stats().Err surfaces the condition.

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
// whose BaseLSN disagrees belongs to a different cut and is skipped.
//
// Replay is read-only on the filesystem: torn tails are detected and ignored
// here, truncated later by EnableWAL (the writer). A log pinned to a
// generation other than the one actually loaded is skipped entirely — its
// ops are either already inside the newer snapshot or belong to a cut that
// was rolled back; applying them would double-apply or corrupt. Valid frames
// run through applyOp, the live mutators' own in-memory path, so replay
// maintains views incrementally the same way live ingest does.
//
// A log is never held in memory: each shard streams it twice through a
// wal.Reader, which holds one frame at a time. The shards share nothing but
// the registry, so replay runs in three steps and only the middle one is
// serial (DESIGN.md §14):
//  1. per shard, concurrently (prepareReplay): read the header, decide
//     whether the log applies, then stream it once, checking every op and
//     every add-record row and keeping each frame's checksum; look each key
//     of the log's dictionary up in the registry — by lookup only. Nothing is
//     applied, so a bad frame anywhere fails the load before any shard
//     changes;
//  2. on the caller's goroutine, in shard order and then declaration
//     order: assign ids to the dictionary keys step 1 did not find. This is
//     the only step that writes the registry. A log declares each key in
//     the frame that first uses it, in row order, so this is the order a
//     one-at-a-time replay would meet them in, and a store replayed at 1
//     shard and at N shards yields identical global state;
//  3. per shard, concurrently (applyTo): stream the log again, map each
//     row's dictionary indexes to ids and apply the ops (applyOp). A frame
//     whose checksum is not the one step 1 kept, a read error, or a frame
//     count other than step 1's fails the load with a ReplayError wrapping
//     ErrLogChanged or the read error.
//
// A one-shard store runs both per-shard steps inline, with no goroutine.
// Every error is the lowest failing shard's. Every replay records one
// wal-replay trace with a wal-scan span (file reads + frame decodes, both
// passes) and a wal-apply span (the checks and applies) per shard; on
// several shards the spans overlap, so they need not sum to the trace's
// duration.
func (c *Coordinator) ReplayWALFS(fs fsio.FS, dir string, pinned []uint64) error {
	// Always traced: a few clock reads per shard per load. The query-I/O
	// deltas stay zero — replay fetches no column through the tracker.
	root := obs.StartTrace(obs.KindWALReplay, dir, "", obs.IODelta{})
	root.SetShard(obs.ShardCoordinator)
	ctx := context.Background() // replay has no caller to give up: LoadFS takes no context
	reps, err := scatter(ctx, c, func(_ context.Context, s int, u *Unit) (*shardReplay, error) {
		return prepareReplay(fs, walPath(dir, s, len(c.units)), s, u, c.reg, pinned)
	})
	if err != nil {
		return err
	}
	for _, rp := range reps {
		for _, i := range rp.unknown {
			rp.ids[i] = c.reg.ID(rp.dict[i])
		}
	}
	if _, err := scatter(ctx, c, func(_ context.Context, s int, u *Unit) (struct{}, error) {
		return struct{}{}, reps[s].applyTo(fs, s, u, c.reg)
	}); err != nil {
		return err
	}
	anchors := make([]walAnchor, len(c.units))
	for s, rp := range reps {
		if rp.skipped {
			c.walSkipped.Add(1)
		}
		c.walReplayed.Add(int64(len(rp.crcs)))
		anchors[s] = walAnchor{nextLSN: rp.next, applied: len(rp.crcs), version: c.units[s].Rel.Version()}
		root.AddSpan(obs.Span{Phase: obs.PhaseWALScan, Shard: s, DurationNanos: rp.scan.Nanoseconds()})
		root.AddSpan(obs.Span{Phase: obs.PhaseWALApply, Shard: s, DurationNanos: rp.apply.Nanoseconds()})
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

// ReplayError is a logged op that replay refused — one the shard cannot
// apply, or an add-record row that is not canonical or is cyclic, which the
// live path never logs — or a log that changed between replay's two reads
// of it. The load fails with it.
type ReplayError struct {
	Shard int
	LSN   uint64
	Err   error
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("shard %d: wal replay of LSN %d: %v", e.Shard, e.LSN, e.Err)
}

func (e *ReplayError) Unwrap() error { return e.Err }

// ErrLogChanged is wrapped by the ReplayError of a log whose second read, the
// one replay applies, did not give back the frames its first read checked.
var ErrLogChanged = errors.New("shard: the log changed between replay's check and its apply")

// shardReplay is one shard's part of a replay, carried from step 1 to
// step 3 of ReplayWALFS.
type shardReplay struct {
	path string
	// checked marks a log step 1 read and checked: step 3 reads it back,
	// even when it holds no frame. header is its header and crcs the
	// checksum of each frame step 1 checked, in LSN order: what step 3 must
	// read back, and nothing more.
	checked bool
	header  wal.Header
	crcs    []uint32
	// dict is the log's key dictionary and ids[i] the registry id of
	// dict[i]; unknown lists, in declaration order, the indexes step 1 did
	// not find in the registry, whose ids step 2 assigns.
	dict    []graph.EdgeKey
	ids     []colstore.EdgeID
	unknown []int
	// skipped marks a log that exists but extends another generation or cut.
	skipped bool
	// next is the LSN the shard's log resumes at.
	next uint64
	// scan and apply time the wal-scan and wal-apply spans.
	scan, apply time.Duration
}

// prepareReplay is step 1 of ReplayWALFS for shard s, whose log is at path.
// It checks every op against the shard's record count as that count will
// stand when the op applies, and every add-record row's form — its order,
// then a cycle check on the reader's node numbers — so that a log which
// would fail part way fails here, before any shard applies anything. A log of a format
// version this build cannot read fails the load when it extends the loaded
// cut, and is skipped like any stale log when it does not. It reads the
// registry and writes only its own result.
func prepareReplay(fs fsio.FS, path string, s int, u *Unit, reg *graph.Registry, pinned []uint64) (*shardReplay, error) {
	start := time.Now()
	r, err := wal.NewReader(fs, path)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	defer r.Close()
	rp := &shardReplay{path: path, next: 1, scan: time.Since(start)}
	if pinned != nil && pinned[s] > 0 {
		rp.next = pinned[s]
	}
	res := r.Result()
	extendsCut := res.Header.Gen == u.Rel.SourceGeneration() &&
		(pinned == nil || pinned[s] == 0 || res.Header.BaseLSN == pinned[s])
	switch {
	case res.Missing():
		// No log: the snapshot is the whole state.
	case res.VersionErr != nil && extendsCut:
		return nil, fmt.Errorf("shard %d: %s: %w", s, path, res.VersionErr)
	case !res.HeaderOK, !extendsCut:
		// Unreadable identity, or a log extending some other snapshot
		// generation / cut: never apply a frame of it.
		rp.skipped = true
	default:
		n := u.Rel.NumRecords()
		var cycles graph.Cycles
		for {
			op, err := rp.read(r)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
			if op == nil {
				break
			}
			err = checkOp(op, n)
			if err == nil && op.Kind == wal.OpAddRecord {
				from, to := r.Nodes()
				err = op.Row.CheckNodes(from, to, &cycles)
				n++
			}
			if err != nil {
				return nil, &ReplayError{Shard: s, LSN: op.LSN, Err: err}
			}
			rp.crcs = append(rp.crcs, r.Checksum())
		}
		rp.checked, rp.header, rp.next, rp.dict = true, res.Header, res.NextLSN, res.Dict
		rp.ids = make([]colstore.EdgeID, len(res.Dict))
		for i, k := range res.Dict {
			id, ok := reg.Lookup(k)
			if !ok {
				rp.unknown = append(rp.unknown, i)
			}
			rp.ids[i] = id
		}
	}
	rp.apply = time.Since(start) - rp.scan
	return rp, nil
}

// read is r.Next, timed into the wal-scan span.
func (rp *shardReplay) read(r *wal.Reader) (*wal.Op, error) {
	start := time.Now()
	op, err := r.Next()
	rp.scan += time.Since(start)
	return op, err
}

// applyTo is step 3 of ReplayWALFS: read the log again and apply its ops, in
// LSN order, each add-record row's dictionary indexes mapped to registry
// ids, checking that every frame is the one step 1 checked.
func (rp *shardReplay) applyTo(fs fsio.FS, s int, u *Unit, reg *graph.Registry) error {
	if !rp.checked {
		return nil
	}
	start, scanned := time.Now(), rp.scan
	lsn := rp.header.BaseLSN
	changed := func(format string, args ...any) error {
		return &ReplayError{Shard: s, LSN: lsn, Err: fmt.Errorf("%w: "+format, append([]any{ErrLogChanged}, args...)...)}
	}
	r, err := wal.NewReader(fs, rp.path)
	rp.scan += time.Since(start)
	if err != nil {
		return &ReplayError{Shard: s, LSN: lsn, Err: err}
	}
	defer r.Close()
	if res := r.Result(); !res.HeaderOK || res.Header != rp.header {
		return changed("its header now reads %+v", res.Header)
	}
	for _, crc := range rp.crcs {
		op, err := rp.read(r)
		switch {
		case err != nil:
			return &ReplayError{Shard: s, LSN: lsn, Err: err}
		case op == nil:
			return changed("the valid prefix now ends here (%s)", r.Result().TornReason)
		case r.Checksum() != crc || len(r.Result().Dict) > len(rp.ids):
			return changed("the frame is not the one checked")
		}
		if op.Kind == wal.OpAddRecord {
			for i := range op.Row.Cells {
				c := &op.Row.Cells[i]
				c.Edge = rp.ids[c.Edge]
			}
		}
		if _, _, err := applyOp(u, reg, op); err != nil {
			return &ReplayError{Shard: s, LSN: lsn, Err: err}
		}
		lsn++
	}
	if op, err := rp.read(r); err != nil {
		return &ReplayError{Shard: s, LSN: lsn, Err: err}
	} else if op != nil {
		return changed("the log now holds frames past the checked ones")
	}
	rp.apply += time.Since(start) - (rp.scan - scanned)
	return nil
}

// --- attach -----------------------------------------------------------------

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
		root = obs.StartTrace(obs.KindWALCheckpoint, dir, obs.PhaseSnapshot, c.IOStats())
		root.SetShard(obs.ShardCoordinator)
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
		root.Begin(obs.PhaseWALTruncate, c.IOStats())
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
		c.traces.Add(root.Finish(c.IOStats()))
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

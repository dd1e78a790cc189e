package grove

import (
	"path/filepath"

	"grove/internal/fsio"
	"grove/internal/shard"
	"grove/internal/wal"
)

// Write-ahead logging facade (DESIGN.md §14). A store's snapshots are
// full-state and generational; the WAL fills the gap between them: with
// EnableWAL on, every mutation appends a CRC-framed op to a per-shard log
// before applying, and LoadStore replays the surviving log prefix atop the
// snapshot. How much survives a crash is the fsync policy's choice:
//
//	SyncAlways    every acknowledged op (group commit batches the fsyncs)
//	SyncInterval  all but the last interval's ops
//	SyncNever     whatever the OS flushed on its own
//
// Save on a WAL-enabled directory checkpoints: snapshot, commit, truncate
// the log. Views maintain themselves incrementally on both the live and the
// replay path, so a recovered store's view bitmaps are bit-identical to
// freshly rebuilt ones.

// WALConfig selects the write-ahead log's durability/throughput trade-off.
type WALConfig = wal.Config

// SyncPolicy is the fsync policy knob of a WALConfig.
type SyncPolicy = wal.SyncPolicy

// Fsync policies, in decreasing durability order.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// DefaultSyncInterval is the fsync cadence SyncInterval defaults to.
const DefaultSyncInterval = wal.DefaultInterval

// ParseSyncPolicy maps "always" / "interval" / "never" to its SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParsePolicy(s) }

// WALStats aggregates the per-shard write-ahead log counters.
type WALStats = shard.WALStats

// cleanPath normalizes a directory path for identity comparison.
func cleanPath(dir string) string { return filepath.Clean(dir) }

// EnableWAL turns on write-ahead logging under dir, the same directory the
// store is (or will be) saved in. Call it right after Open or LoadStore:
//
//   - on a store just loaded from dir, the existing logs resume in place
//     (any torn tail from the crash is truncated first);
//   - on a fresh or since-mutated store, EnableWAL first checkpoints to dir
//     so the logs start empty atop a snapshot that fully covers memory.
//
// After EnableWAL returns, every mutation is logged before it applies and
// recoverable per cfg's fsync policy. If the log later fails (disk full,
// I/O error), it latches: mutations keep applying in memory, mutators and
// WALError report the condition, and a successful Save (checkpoint) starts
// a fresh log.
func (s *Store) EnableWAL(dir string, cfg WALConfig) error {
	return s.coord.AttachWALFS(fsio.OS(), cleanPath(dir), cfg)
}

// OpenDurable opens a write-ahead-logged store at dir: an existing store
// loads (replaying its log), an absent one is created, and either way WAL is
// enabled with cfg before OpenDurable returns. It is the one-call durable
// lifecycle:
//
//	st, _ := grove.OpenDurable(dir, grove.WALConfig{Policy: grove.SyncAlways})
//	st.Append(rec)        // durable once it returns
//	st.Save(dir)          // checkpoint: fold the log into a snapshot
func OpenDurable(dir string, cfg WALConfig, opts ...Option) (*Store, error) {
	// "Nothing there yet" is created; a store that is there but fails to load
	// is an error, never silently overwritten.
	var st *Store
	if shard.Exists(dir) {
		var err error
		if st, err = LoadStore(dir); err != nil {
			return nil, err
		}
	} else {
		st = Open(opts...)
	}
	if err := st.EnableWAL(dir, cfg); err != nil {
		return nil, err
	}
	return st, nil
}

// Append adds a record like Add but reports the write-ahead log's verdict: a
// non-nil error means the record IS applied in memory (the returned id is
// valid) but NOT guaranteed durable. Without WAL it never errors.
func (s *Store) Append(rec *Record) (uint32, error) { return s.coord.Append(rec) }

// AppendEdge adds one edge (or node, when from == to) with a default-measure
// value to an existing record. The record's membership in every matching
// view updates incrementally — a new edge that completes a view's defining
// query ORs the record into that view's bitmap, and aggregate views
// recompute the record's pre-aggregated measure.
func (s *Store) AppendEdge(rec uint32, from, to string, v float64) error {
	return s.coord.AppendEdge(rec, from, to, "", v, true)
}

// AppendEdgeMeasure is AppendEdge under a named measure ("" = default).
func (s *Store) AppendEdgeMeasure(rec uint32, from, to, measure string, v float64) error {
	return s.coord.AppendEdge(rec, from, to, measure, v, true)
}

// AppendBareEdge adds an edge (or node) without a measure.
func (s *Store) AppendBareEdge(rec uint32, from, to string) error {
	return s.coord.AppendEdge(rec, from, to, "", 0, false)
}

// WALEnabled reports whether a write-ahead log is attached.
func (s *Store) WALEnabled() bool { return s.coord.WALEnabled() }

// WALStats snapshots the write-ahead log counters: appended records/bytes,
// fsyncs, truncations, replayed ops, per-shard LSN ranges.
func (s *Store) WALStats() WALStats { return s.coord.WALStats() }

// WALError returns the first sticky write-ahead log failure, if any: non-nil
// means ops past some LSN are applied in memory but not reaching the disk.
// A successful Save (checkpoint) clears the condition by starting fresh logs.
func (s *Store) WALError() error { return s.coord.WALError() }

// SyncWAL forces an fsync of every shard's log regardless of policy — the
// "flush before exit" call for SyncInterval / SyncNever stores. A no-op
// without WAL.
func (s *Store) SyncWAL() error { return s.coord.SyncWAL() }

// InspectWAL describes one shard's log file without loading the store:
// header identity, LSN range, op count, tail health. Sharded stores have
// one entry per shard directory; single-shard stores exactly one.
type WALFileInfo struct {
	Path string
	// Exists is false when no log file is present at all.
	Exists bool
	// HeaderOK is false when the file exists but its identity is unreadable
	// (corrupt or foreign header); such a log is ignored by replay.
	HeaderOK  bool
	HeaderErr string
	Shard     uint32
	// Gen is the snapshot generation the log extends.
	Gen string
	// BaseLSN..NextLSN-1 are the LSNs of the valid frames; Ops counts them.
	BaseLSN, NextLSN uint64
	Ops              int
	// GoodBytes/TornBytes split the file into the valid prefix and the torn
	// tail a crash left behind (0 torn = clean). TornReason says what ended
	// the prefix.
	GoodBytes, TornBytes int64
	TornReason           string
	// Kinds histograms the decoded ops by kind name.
	Kinds map[string]int
}

// InspectWAL scans the write-ahead log files of the store directory at dir
// (never modifying them) and reports their health. It works on damaged
// stores: a torn or corrupt log is described, not rejected.
func InspectWAL(dir string) ([]WALFileInfo, error) {
	dirs, _, err := shard.ShardDirs(dir)
	if err != nil {
		return nil, err
	}
	out := make([]WALFileInfo, 0, len(dirs))
	for _, d := range dirs {
		p := filepath.Join(d, wal.FileName)
		res, err := wal.Scan(fsio.OS(), p)
		if err != nil {
			return nil, err
		}
		info := WALFileInfo{
			Path:       p,
			Exists:     !res.Missing(),
			HeaderOK:   res.HeaderOK,
			HeaderErr:  res.HeaderErr,
			Shard:      res.Header.Shard,
			Gen:        res.Header.Gen,
			BaseLSN:    res.Header.BaseLSN,
			NextLSN:    res.NextLSN,
			Ops:        len(res.Ops),
			GoodBytes:  res.GoodSize,
			TornBytes:  res.TornBytes(),
			TornReason: res.TornReason,
		}
		if len(res.Ops) > 0 {
			info.Kinds = make(map[string]int)
			for _, op := range res.Ops {
				info.Kinds[op.Kind.String()]++
			}
		}
		out = append(out, info)
	}
	return out, nil
}

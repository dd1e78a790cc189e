package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"grove/internal/fsio"
	"grove/internal/graph"
)

// castagnoli is the CRC-32C table, the same polynomial the snapshot format
// uses, so one corruption-detection story covers both files.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

const (
	// magic opens every log file.
	magic = "GROVEWAL"
	// formatVersion is bumped on incompatible layout changes. Version 1,
	// written up to commit 3239f01, spelled every element out by name;
	// version 2 names it by key-dictionary index.
	formatVersion = 2
	// FileName is the log's name inside a store (or shard) directory.
	FileName = "wal.log"
)

// SyncPolicy selects when Commit turns an acknowledged append into an fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every Commit; concurrent committers are batched
	// onto one fsync (group commit). No acknowledged write is ever lost.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when at least Config.Interval has elapsed since
	// the previous fsync; a crash loses at most one interval of writes.
	SyncInterval
	// SyncNever leaves fsync to snapshots and the OS; fastest, weakest.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the CLI spelling of a policy to its value.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// DefaultInterval is the fsync cadence SyncInterval uses when Config.Interval
// is unset.
const DefaultInterval = 100 * time.Millisecond

// Config selects the durability/throughput trade-off of a log.
type Config struct {
	Policy SyncPolicy
	// Interval is the minimum spacing between fsyncs under SyncInterval;
	// zero or negative selects DefaultInterval.
	Interval time.Duration
}

func (c Config) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return DefaultInterval
}

// Header is the decoded fixed prologue of a log file. It pins the log to the
// snapshot generation it extends: replay applies the log only over exactly
// that generation, which is what makes checkpointing exactly-once — a log
// pinned to a superseded generation is dead weight, never double-applied.
type Header struct {
	Version uint32
	// Shard is the shard index this log belongs to (0 for a single-shard
	// store).
	Shard uint32
	// BaseLSN is the LSN the first frame after the header must carry. LSNs
	// continue across checkpoints: a reset log restarts empty but numbers
	// from where the previous incarnation stopped.
	BaseLSN uint64
	// Gen is the snapshot generation this log extends ("" for a log created
	// before the store was ever saved — only valid for an empty store).
	Gen string
}

var (
	// ErrUnsupportedVersion is wrapped by the error of a log whose header is
	// intact but whose format version this build does not read.
	ErrUnsupportedVersion = errors.New("wal: unsupported log format version")
	// ErrOpTooLarge is wrapped by the error of an op whose frame would pass
	// the log's frame limit: the log cannot hold it.
	ErrOpTooLarge = errors.New("wal: op too large to log")
)

func encodeHeader(h Header) ([]byte, error) {
	if len(h.Gen) > maxGenLen {
		return nil, fmt.Errorf("wal: generation name of %d bytes exceeds the %d-byte header limit", len(h.Gen), maxGenLen)
	}
	e := &enc{}
	e.b = append(e.b, magic...)
	e.u32(h.Version)
	e.u32(h.Shard)
	e.u64(h.BaseLSN)
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(len(h.Gen)))
	e.b = append(e.b, h.Gen...)
	e.u32(checksum(e.b))
	return e.b, nil
}

// decodeHeader parses a header from the front of b, returning its byte size.
// An intact header of another format version comes back whole, with an
// error wrapping ErrUnsupportedVersion that says how to convert the log.
func decodeHeader(b []byte) (Header, int, error) {
	if len(b) < len(magic) {
		return Header{}, 0, fmt.Errorf("wal: file shorter than the magic string")
	}
	if string(b[:len(magic)]) != magic {
		return Header{}, 0, fmt.Errorf("wal: bad magic %q", b[:len(magic)])
	}
	d := &dec{b: b, off: len(magic)}
	var h Header
	h.Version = d.u32()
	h.Shard = d.u32()
	h.BaseLSN = d.u64()
	h.Gen = string(d.take(uint64(d.u16())))
	end := d.off
	crc := d.u32()
	if d.err != nil {
		return Header{}, 0, fmt.Errorf("wal: truncated header")
	}
	if checksum(b[:end]) != crc {
		return Header{}, 0, fmt.Errorf("wal: header CRC mismatch")
	}
	switch {
	case h.Version == 1:
		return h, d.off, fmt.Errorf("%w 1 (this build reads %d): load the store with a build from commit 3239f01 or earlier and Save it once, which folds the log into a snapshot", ErrUnsupportedVersion, formatVersion)
	case h.Version != formatVersion:
		return h, d.off, fmt.Errorf("%w %d (this build reads %d)", ErrUnsupportedVersion, h.Version, formatVersion)
	}
	return h, d.off, nil
}

// Stats is a point-in-time snapshot of a log's counters, read without
// blocking appenders.
type Stats struct {
	// Appends counts frames written; AppendedBytes the bytes they occupied.
	Appends, AppendedBytes int64
	// Fsyncs counts physical fsync calls (group commit makes this smaller
	// than Appends under SyncAlways with concurrency).
	Fsyncs int64
	// Resets counts checkpoint truncations of this log.
	Resets int64
	// BaseLSN/NextLSN bound the live frames: the log holds LSNs
	// [BaseLSN, NextLSN).
	BaseLSN, NextLSN uint64
	// Synced is the highest LSN known durable (fsync-acknowledged).
	Synced uint64
	// Gen is the snapshot generation the log currently extends.
	Gen string
}

// Log is an open write-ahead log for one shard. Append encodes an op against
// the log's key dictionary and writes the frame; Commit makes it durable per
// the configured policy. Prepare and Write split Append in two, so a caller
// can learn that an op cannot be logged before it applies the op. A Log is
// safe for concurrent use.
//
// The error model is a sticky latch: the first failed write or fsync poisons
// the log — every later Append fails immediately, so the on-disk file is
// always a clean prefix of the acknowledged ops. Callers keep applying ops
// in memory (availability) and surface the latched error to the operator.
type Log struct {
	fs    fsio.FS
	path  string
	shard uint32
	cfg   Config

	// mu serializes encoding and frame writes, so dictionary order is LSN
	// order, and the lsn/size bookkeeping.
	mu      sync.Mutex
	f       fsio.File
	gen     string
	baseLSN uint64
	nextLSN uint64 // LSN the next Append will claim
	size    int64
	failed  error // sticky write/fsync failure
	enc     *encoder
	epoch   uint64 // bumped when the file (and dictionary) starts over

	// syncMu guards the group-commit state: one goroutine fsyncs while the
	// rest wait on cond and re-check synced.
	syncMu   sync.Mutex
	cond     *sync.Cond
	synced   uint64 // highest LSN known durable
	syncing  bool
	lastSync time.Time

	appends atomic.Int64
	bytes   atomic.Int64
	fsyncs  atomic.Int64
	resets  atomic.Int64
}

// Create makes a fresh log at path (truncating any prior file), pinned to
// gen and numbering from base. The header is written and fsynced before
// Create returns, so a log that exists at all has a readable identity.
func Create(fs fsio.FS, path string, shard uint32, gen string, base uint64, cfg Config) (*Log, error) {
	l := newLog(fs, path, shard, cfg)
	if err := l.createLocked(gen, base); err != nil {
		return nil, err
	}
	l.synced = base - 1
	return l, nil
}

// OpenAt attaches to an existing, already-scanned log for appending. The
// torn tail past scan.GoodSize (if any) is truncated away first; appending
// resumes at scan.NextLSN with the dictionary the valid prefix declared, so a
// resumed log stays one namespace. The caller has already verified the
// header pins the generation it expects.
func OpenAt(fs fsio.FS, path string, scan *ScanResult, cfg Config) (*Log, error) {
	l := newLog(fs, path, scan.Header.Shard, cfg)
	if scan.TornBytes() > 0 {
		if err := fs.Truncate(path, scan.GoodSize); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s for append: %w", path, err)
	}
	l.f = f
	l.enc = newEncoder(scan.Dict)
	l.gen = scan.Header.Gen
	l.baseLSN = scan.Header.BaseLSN
	l.nextLSN = scan.NextLSN
	l.size = scan.GoodSize
	// Frames read back from disk are as durable as they will ever be.
	l.synced = scan.NextLSN - 1
	return l, nil
}

func newLog(fs fsio.FS, path string, shard uint32, cfg Config) *Log {
	l := &Log{fs: fs, path: path, shard: shard, cfg: cfg}
	l.cond = sync.NewCond(&l.syncMu)
	return l
}

// createLocked (re)creates the file with a fresh header. Callers hold no
// locks on a new Log; Reset holds mu.
func (l *Log) createLocked(gen string, base uint64) error {
	hdr, err := encodeHeader(Header{Version: formatVersion, Shard: l.shard, BaseLSN: base, Gen: gen})
	if err != nil {
		return err
	}
	if l.f != nil {
		l.f.Close() //grovevet:ignore droppederr the handle is being replaced; the new header write surfaces any real failure
		l.f = nil
	}
	f, err := l.fs.Create(l.path)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", l.path, err)
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close() //grovevet:ignore droppederr the write error is already being returned
		return fmt.Errorf("wal: write header of %s: %w", l.path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //grovevet:ignore droppederr the sync error is already being returned
		return fmt.Errorf("wal: sync header of %s: %w", l.path, err)
	}
	l.f = f
	l.enc = newEncoder(nil)
	l.epoch++
	l.gen = gen
	l.baseLSN = base
	l.nextLSN = base
	l.size = int64(len(hdr))
	l.failed = nil
	return nil
}

// Pending is an op Prepare encoded and Write has yet to write.
type Pending struct {
	op       Op
	frame    []byte
	declared []graph.EdgeKey
	// base and epoch identify the dictionary the frame was encoded against.
	base  int
	epoch uint64
}

// Prepare encodes op against the log's dictionary without writing it or
// changing the dictionary. An error means the op cannot be logged at all —
// its frame would exceed the frame limit, or it is malformed — so a caller
// that must log what it applies refuses the op. A latched write failure is
// not Prepare's concern: Write reports it.
func (l *Log) Prepare(op Op) (Pending, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.prepareLocked(op)
}

func (l *Log) prepareLocked(op Op) (Pending, error) {
	frame, declared, err := l.enc.encode(&op)
	if err != nil {
		return Pending{}, err
	}
	return Pending{op: op, frame: frame, declared: declared, base: len(l.enc.dict), epoch: l.epoch}, nil
}

// Write appends a prepared frame to the file, adds the keys it declares to
// the dictionary and returns its LSN. A frame prepared against a dictionary
// that has changed since (another append or a Reset came between) is
// encoded again first. The frame is in the OS buffer cache but NOT yet
// durable — call Commit(lsn) to make it so under the configured policy.
// Write never blocks on an fsync.
func (l *Log) Write(p Pending) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	if p.epoch != l.epoch || p.base != len(l.enc.dict) {
		var err error
		if p, err = l.prepareLocked(p.op); err != nil {
			return 0, err
		}
	}
	lsn := l.nextLSN
	seal(p.frame, lsn)
	//grovevet:ignore lockorder the file write must happen under mu: frame order in the file must equal LSN order
	if _, err := l.f.Write(p.frame); err != nil {
		l.failed = fmt.Errorf("wal: append to %s: %w", l.path, err)
		return 0, l.failed
	}
	l.enc.commit(p.declared)
	l.nextLSN++
	l.size += int64(len(p.frame))
	l.appends.Add(1)
	l.bytes.Add(int64(len(p.frame)))
	return lsn, nil
}

// Append encodes op, writes its frame and returns its LSN: Prepare, then
// Write.
func (l *Log) Append(op Op) (uint64, error) {
	p, err := l.Prepare(op)
	if err != nil {
		return 0, err
	}
	return l.Write(p)
}

// Commit makes the append that returned lsn durable according to the
// configured policy. Under SyncAlways concurrent committers are batched: one
// of them performs the fsync and the rest observe it covered their LSN.
func (l *Log) Commit(lsn uint64) error {
	switch l.cfg.Policy {
	case SyncNever:
		return nil
	case SyncInterval:
		l.syncMu.Lock()
		due := time.Since(l.lastSync) >= l.cfg.interval()
		l.syncMu.Unlock()
		if !due {
			return nil
		}
		return l.syncTo(lsn)
	default:
		return l.syncTo(lsn)
	}
}

// Sync forces an fsync covering every append so far, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.nextLSN - 1
	l.mu.Unlock()
	return l.syncTo(target)
}

// syncTo blocks until LSNs up to lsn are durable, performing the fsync
// itself if no other goroutine is already doing one (group commit).
func (l *Log) syncTo(lsn uint64) error {
	l.syncMu.Lock()
	for {
		if l.synced >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		if !l.syncing {
			break
		}
		l.cond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()

	// Everything appended before this point rides on this one fsync.
	l.mu.Lock()
	target := l.nextLSN - 1
	f, ferr := l.f, l.failed
	l.mu.Unlock()
	var err error
	switch {
	case ferr != nil:
		err = ferr
	default:
		//grovevet:ignore lockorder fsync intentionally happens outside mu so appenders are never blocked on the disk
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("wal: fsync %s: %w", l.path, err)
			l.latch(err)
		} else {
			l.fsyncs.Add(1)
		}
	}

	l.syncMu.Lock()
	if err == nil {
		l.synced = target
		l.lastSync = time.Now()
	}
	l.syncing = false
	l.cond.Broadcast()
	l.syncMu.Unlock()
	return err
}

// latch records a write/fsync failure so every later Append refuses.
func (l *Log) latch(err error) {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.mu.Unlock()
}

// Reset truncates the log after a successful checkpoint: the file is
// recreated with a header pinned to gen and a BaseLSN continuing the
// sequence. Must only be called after the checkpoint's commit point (the
// CURRENT flip / manifest write), with ingest stalled.
func (l *Log) Reset(gen string) error {
	//grovevet:ignore lockorder the file swap must happen under mu: ingest is stalled by the checkpoint and no append may interleave with the close/recreate
	l.mu.Lock()
	base := l.nextLSN
	err := l.createLocked(gen, base)
	if err != nil {
		// The old handle is gone and the new file may be missing or torn; a
		// torn header fails its CRC on the next load, so the log degrades to
		// "absent" — the snapshot alone carries the state.
		l.failed = fmt.Errorf("wal: reset %s: %w", l.path, err)
		err = l.failed
	}
	l.mu.Unlock()
	if err == nil {
		l.resets.Add(1)
		l.syncMu.Lock()
		l.synced = base - 1
		l.syncMu.Unlock()
	}
	return err
}

// Err returns the sticky failure, if any: non-nil means the log stopped
// recording at some prefix and the store is running memory-only past it.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// NextLSN returns the LSN the next append will claim.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	base, next, gen := l.baseLSN, l.nextLSN, l.gen
	l.mu.Unlock()
	l.syncMu.Lock()
	synced := l.synced
	l.syncMu.Unlock()
	return Stats{
		Appends:       l.appends.Load(),
		AppendedBytes: l.bytes.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Resets:        l.resets.Load(),
		BaseLSN:       base,
		NextLSN:       next,
		Synced:        synced,
		Gen:           gen,
	}
}

// Close fsyncs and closes the file. The Log is unusable afterwards.
func (l *Log) Close() error {
	//grovevet:ignore lockorder final flush: Close must not race a late append, so waiting out the fsync under mu is the point
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

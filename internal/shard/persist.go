package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"

	"grove/internal/colstore"
	"grove/internal/fsio"
	"grove/internal/graph"
	"grove/internal/wal"
)

// On-disk layout of a store directory. This file is the only place that
// knows it; DESIGN.md §11 ("commit cut") is the protocol in prose.
//
//	one shard (flat)            several shards (manifest)
//	registry.json               registry.json
//	gen-000001/ CURRENT …       shard-000/ gen-000001/ CURRENT …
//	wal.log                     shard-000/wal.log
//	                            shard-001/ …
//	                            SHARDS.json
//
// Every shard owns a generational snapshot store (colstore, generation.go)
// and, with a write-ahead log attached, a wal.log next to it. One shard keeps
// that store at the directory root and its CURRENT flip is the commit point;
// several shards each get a shard-NNN subdirectory and SHARDS.json, written
// last, is the commit point: it pins every shard's generation (and, for a
// checkpoint, every log's cut LSN), so Load follows it and ignores the
// per-shard CURRENT pointers a crashed later save may have advanced.

const (
	manifestFile = "SHARDS.json"
	registryFile = "registry.json"
)

// ErrShadowedSave is returned when a single-shard store is saved (or
// checkpointed) into a directory whose committed layout is a SHARDS.json
// manifest: loads follow the manifest first, so the flat cut would commit
// and then never be read.
var ErrShadowedSave = errors.New("shard: directory holds a SHARDS.json manifest that would shadow a single-shard save")

// shardsManifest is the decoded SHARDS.json.
type shardsManifest struct {
	FormatVersion int `json:"format_version"`
	NumShards     int `json:"num_shards"`
	// Generations[i] is the pinned snapshot generation of shard i
	// ("gen-000003").
	Generations []string `json:"generations"`
	// WALLSNs[i], when present, is the LSN shard i's write-ahead log resumes
	// at for this cut: a checkpoint records each log's next LSN at the
	// stalled instant the generations were cut. Replay refuses a log whose
	// header BaseLSN disagrees — that log extends some other cut, and mixing
	// it with these generations would break cross-shard consistency.
	WALLSNs []uint64 `json:"wal_lsns,omitempty"`
}

// flatLayout is the one layout decision that depends on the shard count:
// what an n-shard store is written as (and where its logs live).
func flatLayout(n int) bool { return n == 1 }

// shardDir returns the directory of shard s's snapshot store in the store at
// dir: dir itself in the flat layout, a shard-NNN subdirectory under a
// manifest.
func shardDir(dir string, s int, flat bool) string {
	if flat {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}

// walPath returns shard s's log path in an n-shard store at dir.
func walPath(dir string, s, n int) string {
	return filepath.Join(shardDir(dir, s, flatLayout(n)), wal.FileName)
}

// readShardsManifest reads and validates SHARDS.json. A directory without
// one (the flat layout, or no store at all) yields an fs.ErrNotExist error.
func readShardsManifest(fs fsio.FS, dir string) (*shardsManifest, error) {
	b, err := fsio.ReadFile(fs, filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m shardsManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: parse %s: %w", manifestFile, err)
	}
	if m.FormatVersion != 1 {
		return nil, fmt.Errorf("shard: %s format version %d not supported", manifestFile, m.FormatVersion)
	}
	if m.NumShards < 1 || len(m.Generations) != m.NumShards {
		return nil, fmt.Errorf("shard: %s inconsistent: %d shards, %d generations", manifestFile, m.NumShards, len(m.Generations))
	}
	if m.WALLSNs != nil && len(m.WALLSNs) != m.NumShards {
		return nil, fmt.Errorf("shard: %s inconsistent: %d shards, %d wal lsns", manifestFile, m.NumShards, len(m.WALLSNs))
	}
	return &m, nil
}

// Exists reports whether dir holds something that should load as a store (a
// commit point or a registry), as opposed to nothing yet.
func Exists(dir string) bool {
	for _, name := range []string{manifestFile, registryFile} {
		if _, err := fsio.OS().Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return colstore.CurrentGeneration(dir) != ""
}

// ShardDirs describes the committed layout of the store at dir without
// loading it: each shard's directory (snapshot generations, wal.log) in shard
// order and, for a manifest layout, the generation SHARDS.json pins per
// shard — which after a crashed save may lag that shard's CURRENT pointer.
// pinned is nil for the flat layout, whose only shard directory is dir.
func ShardDirs(dir string) (dirs, pinned []string, err error) {
	m, err := readShardsManifest(fsio.OS(), dir)
	if errors.Is(err, iofs.ErrNotExist) {
		return []string{dir}, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	dirs = make([]string, m.NumShards)
	for i := range dirs {
		dirs[i] = shardDir(dir, i, false)
	}
	return dirs, m.Generations, nil
}

// commitCut writes one commit cut of the store to dir — the only writer of
// the layout above. In write order:
//
//  1. registry.json, atomically. The registry is append-only, so a newer
//     registry next to older snapshots is harmless (ids never change
//     meaning); the reverse could leave columns whose ids nothing names.
//  2. every shard's snapshot as a new generation of its own store (tmp dir,
//     fsync, rename, CURRENT flip), so a crash inside any shard leaves that
//     shard's previous generation loadable.
//  3. the commit point: the one shard's CURRENT flip of step 2 in the flat
//     layout, SHARDS.json (atomic, last) otherwise.
//
// A crash before the commit point leaves the previous cut committed; after
// it, the new one; no crash point yields a mix. The generations a durable
// manifest pins are GC-protected in each shard until the next manifest
// lands, so repeated crashed saves cannot collect the rollback cut.
//
// lsns is nil for a plain save. A checkpoint passes each log's next LSN; the
// caller then holds every shard's ingestMu so generations and LSNs describe
// one instant, and resets the logs strictly after commitCut returns. The
// caller holds saveMu. Returns the generation each shard installed.
func (c *Coordinator) commitCut(fs fsio.FS, dir string, lsns []uint64) ([]string, error) {
	n := len(c.units)
	flat := flatLayout(n)
	if flat {
		// Refuse before touching the directory: a committed manifest here
		// would keep answering loads from its own stale cut.
		if _, err := fs.Stat(filepath.Join(dir, manifestFile)); err == nil {
			return nil, fmt.Errorf("shard: save %s: %w", dir, ErrShadowedSave)
		} else if !errors.Is(err, iofs.ErrNotExist) {
			return nil, fmt.Errorf("shard: save: %w", err)
		}
	} else if prev, err := readShardsManifest(fs, dir); err == nil && prev.NumShards == n {
		for i, u := range c.units {
			u.Rel.SetGCProtect(prev.Generations[i])
		}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: save: %w", err)
	}
	if err := c.reg.SaveFS(fs, filepath.Join(dir, registryFile)); err != nil {
		return nil, err
	}
	gens := make([]string, n)
	for i, u := range c.units {
		gen, err := u.Rel.SaveFSGen(fs, shardDir(dir, i, flat))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		gens[i] = gen
	}
	if flat {
		return gens, nil
	}
	b, err := json.Marshal(&shardsManifest{FormatVersion: 1, NumShards: n, Generations: gens, WALLSNs: lsns})
	if err != nil {
		return nil, fmt.Errorf("shard: save: %w", err)
	}
	if err := fsio.WriteFileAtomic(fs, filepath.Join(dir, manifestFile), b); err != nil {
		return nil, fmt.Errorf("shard: save %s: %w", manifestFile, err)
	}
	for i, u := range c.units {
		u.Rel.SetGCProtect(gens[i])
	}
	return gens, nil
}

// Save persists the coordinator to dir using the OS filesystem.
func (c *Coordinator) Save(dir string) error { return c.SaveFS(fsio.OS(), dir) }

// SaveFS commits a full snapshot cut of the coordinator to dir (commitCut).
// On success the new cut is durable; after a crash at any point, Load
// recovers the previous committed cut bit-for-bit.
func (c *Coordinator) SaveFS(fs fsio.FS, dir string) error {
	c.saveMu.Lock() //grovevet:ignore lockorder saveMu serializes whole commit cuts; it is expected to block on fsio for their duration
	defer c.saveMu.Unlock()
	_, err := c.commitCut(fs, dir, nil)
	return err
}

// Load reads a store from dir using the OS filesystem.
func Load(dir string) (*Coordinator, error) { return LoadFS(fsio.OS(), dir) }

// LoadFS reads the store committed at dir, whichever layout it has. With a
// SHARDS.json manifest, every shard loads exactly the generation the manifest
// pins — never its CURRENT pointer, which a crashed later save may have
// advanced. Without one the directory is a single shard's own snapshot store,
// loaded through CURRENT with colstore's fallback to older generations. Each
// shard's write-ahead log (when present and pinned to exactly this cut) then
// replays atop its snapshot, recovering every op the log persisted since the
// checkpoint. LoadFS never modifies the directory.
func LoadFS(fs fsio.FS, dir string) (*Coordinator, error) {
	m, err := readShardsManifest(fs, dir)
	var rels []*colstore.Relation
	var lsns []uint64
	switch {
	case err == nil:
		lsns = m.WALLSNs
		// Each shard loads its own directory, so the loads fan out; the
		// error is the lowest failing shard's.
		rels, err = fanOut(context.Background(), len(m.Generations), func(_ context.Context, i int) (*colstore.Relation, error) {
			gen := m.Generations[i]
			rel, err := colstore.LoadGenerationFS(fs, shardDir(dir, i, false), gen)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			// The loaded cut stays the rollback target until the next manifest
			// commits, so re-arm its GC protection.
			rel.SetGCProtect(gen)
			return rel, nil
		})
		if err != nil {
			return nil, err
		}
	case errors.Is(err, iofs.ErrNotExist):
		rel, err := colstore.LoadFS(fs, dir)
		if err != nil {
			return nil, err
		}
		rels = []*colstore.Relation{rel}
	default:
		return nil, fmt.Errorf("shard: load %s: %w", dir, err)
	}
	reg, err := graph.LoadRegistryFS(fs, filepath.Join(dir, registryFile))
	if err != nil {
		return nil, err
	}
	c := NewFromRelations(rels, reg)
	if err := c.ReplayWALFS(fs, dir, lsns); err != nil {
		return nil, err
	}
	return c, nil
}

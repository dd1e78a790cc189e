package colstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"grove/internal/fsio"
)

// Generational snapshot layout: a store directory holds
//
//	gen-000001/            — one complete snapshot (manifest.json + data.bin)
//	gen-000002/
//	CURRENT                — name of the installed generation ("gen-000002\n")
//	tmp-gen-000003/        — a save in progress (invisible to Load)
//
// Save writes the next generation into a tmp- directory, fsyncs everything,
// renames it into place and then atomically repoints CURRENT, so a crash at
// any step leaves the previous generation installed and loadable. Load
// follows CURRENT and, if the installed generation turns out damaged, falls
// back to the newest older generation that still loads.

const (
	currentFile = "CURRENT"
	genPrefix   = "gen-"
	tmpPrefix   = "tmp-"
)

// persistRecoveries counts Loads that could not use the generation CURRENT
// points at and recovered from a fallback generation instead. Exposed as the
// grove_persist_recoveries_total metric.
var persistRecoveries atomic.Int64

// PersistRecoveries returns how many Loads in this process recovered from a
// fallback generation because the installed one was missing or damaged.
func PersistRecoveries() int64 { return persistRecoveries.Load() }

func genDirName(n uint64) string { return fmt.Sprintf("%s%06d", genPrefix, n) }

// parseGenName reports the sequence number of a generation directory name.
// Only "gen-" followed by decimal digits qualifies; anything else (including
// path separators smuggled into a corrupt CURRENT file) is rejected.
func parseGenName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, genPrefix)
	if !ok || digits == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listGenerations returns the generation directory names under dir, newest
// first. A missing or unreadable directory yields nil: the caller treats
// that the same as "no generations".
func listGenerations(fs fsio.FS, dir string) []string {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil
	}
	return gensFromEntries(ents)
}

// gensFromEntries filters directory entries down to generation names,
// newest first.
func gensFromEntries(ents []os.DirEntry) []string {
	type gen struct {
		name string
		seq  uint64
	}
	var gens []gen
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		if n, ok := parseGenName(ent.Name()); ok {
			gens = append(gens, gen{ent.Name(), n})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].seq > gens[j].seq })
	out := make([]string, len(gens))
	for i, g := range gens {
		out[i] = g.name
	}
	return out
}

// readCurrent reads the CURRENT pointer file and returns the generation name
// it designates. ok is false when the file is missing, unreadable, or does
// not hold a well-formed generation name — a corrupt pointer must degrade to
// the fallback scan, never to following an arbitrary path.
func readCurrent(fs fsio.FS, dir string) (string, bool) {
	b, err := fsio.ReadFile(fs, filepath.Join(dir, currentFile))
	if err != nil {
		return "", false
	}
	name := strings.TrimSpace(string(b))
	if _, ok := parseGenName(name); !ok {
		return "", false
	}
	return name, true
}

// installCurrent durably repoints CURRENT at gen (write temp, fsync, rename,
// fsync dir). After it returns, a crashed-and-restarted Load follows gen.
func installCurrent(fs fsio.FS, dir, gen string) error {
	if err := fsio.WriteFileAtomic(fs, filepath.Join(dir, currentFile), []byte(gen+"\n")); err != nil {
		return fmt.Errorf("colstore: install %s: %w", gen, err)
	}
	return nil
}

// snapshotDir resolves the directory holding the currently installed
// snapshot: the CURRENT generation, else the newest generation.
func snapshotDir(fs fsio.FS, dir string) (string, error) {
	if cur, ok := readCurrent(fs, dir); ok {
		return filepath.Join(dir, cur), nil
	}
	if gens := listGenerations(fs, dir); len(gens) > 0 {
		return filepath.Join(dir, gens[0]), nil
	}
	return "", fmt.Errorf("colstore: no generations in %s", dir)
}

// GenerationInfo describes one on-disk generation for operator tooling
// (`grovecli recover`).
type GenerationInfo struct {
	// Name is the generation directory name ("gen-000002").
	Name string
	// SizeBytes is the combined size of manifest.json and data.bin.
	SizeBytes int64
	// Current reports whether CURRENT points at this generation.
	Current bool
	// Status is "ok" when the manifest parses and the data checksum
	// verifies, otherwise the failure text.
	Status string
}

// Generations inventories the snapshot generations in dir, newest first,
// verifying each one's checksum. It works on damaged stores — a generation
// that fails verification is reported with its failure, not skipped.
func Generations(dir string) ([]GenerationInfo, error) {
	fs := fsio.OS()
	gens := listGenerations(fs, dir)
	cur, curOK := readCurrent(fs, dir)
	if len(gens) == 0 {
		return nil, fmt.Errorf("colstore: no generations in %s", dir)
	}
	out := make([]GenerationInfo, 0, len(gens))
	for _, g := range gens {
		info := inspectSnapshot(fs, filepath.Join(dir, g))
		info.Name = g
		info.Current = curOK && g == cur
		out = append(out, info)
	}
	return out, nil
}

func inspectSnapshot(fs fsio.FS, dir string) GenerationInfo {
	var info GenerationInfo
	for _, name := range []string{"manifest.json", "data.bin"} {
		if fi, err := fs.Stat(filepath.Join(dir, name)); err == nil {
			info.SizeBytes += fi.Size()
		}
	}
	if err := verifySnapshot(fs, dir); err != nil {
		info.Status = err.Error()
	} else {
		info.Status = "ok"
	}
	return info
}

// CurrentGeneration returns the generation name CURRENT points at, or ""
// when the pointer is missing or corrupt.
func CurrentGeneration(dir string) string {
	cur, _ := readCurrent(fsio.OS(), dir)
	return cur
}

// Rollback force-installs gen as the store's CURRENT generation. The target
// must exist and pass checksum verification; the previously installed
// generation is left on disk (a later Save garbage-collects it).
func Rollback(dir, gen string) error {
	fs := fsio.OS()
	if _, ok := parseGenName(gen); !ok {
		return fmt.Errorf("colstore: rollback: %q is not a generation name", gen)
	}
	if err := verifySnapshot(fs, filepath.Join(dir, gen)); err != nil {
		return fmt.Errorf("colstore: rollback to %s: %w", gen, err)
	}
	return installCurrent(fs, dir, gen)
}

// gcGenerations removes generations beyond the keep-count, never touching
// the one CURRENT points at nor any protected one: the generation a sharded
// coordinator's durable manifest still pins (collecting it would destroy
// the cross-shard cut a crashed coordinated save must roll back to), and
// the generation a live relation lazily pages its measure blocks from
// (collecting it would turn every later block fault into an I/O error).
// Failures are returned but the snapshot the caller just installed is
// already durable.
func gcGenerations(fs fsio.FS, dir string, keep int, current string, protects ...string) error {
	if keep < 1 {
		keep = 1
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("colstore: gc: %w", err)
	}
	gens := gensFromEntries(ents)
	kept := 0
	for _, g := range gens {
		protected := g == current
		for _, p := range protects {
			if p != "" && g == p {
				protected = true
			}
		}
		if protected || kept < keep {
			kept++
			continue
		}
		if err := fs.RemoveAll(filepath.Join(dir, g)); err != nil {
			return fmt.Errorf("colstore: gc %s: %w", g, err)
		}
	}
	return nil
}

// Package fsio is grove's filesystem seam: a minimal interface over the
// handful of OS operations the persistence layer performs, with a passthrough
// implementation for production and a deterministic fault-injecting one for
// crash-safety tests.
//
// The point of the abstraction is not portability — it is testability of the
// durability claim. Every operation the column store's Save path issues
// (create, write, sync, close, rename, directory sync, …) flows through an FS
// so a test can fail exactly the k-th operation and then assert that a
// subsequent Load still yields a complete snapshot. The fsioonly grovevet
// analyzer enforces that internal/colstore never bypasses the seam with
// direct os calls.
package fsio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is an open file handle. Writable handles come from Create, read-only
// handles from Open; Sync on a read-only handle is a no-op for the OS
// implementation.
type File interface {
	io.Reader
	io.Writer
	// ReadAt reads len(p) bytes from the given absolute offset without
	// moving the sequential read cursor (io.ReaderAt semantics). The paged
	// column store uses it for lazy block loads from snapshot files, from
	// several goroutines at once on one handle: like io.ReaderAt, ReadAt
	// must be safe for concurrent calls (os.File is; wrappers pass through).
	ReadAt(p []byte, off int64) (int, error)
	// Sync flushes the file's content to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the set of filesystem operations grove persistence performs. All
// paths are interpreted as the host OS would.
type FS interface {
	// Create opens name for writing, truncating it if it exists.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent. The
	// write-ahead log extends its tail through this handle.
	OpenAppend(name string) (File, error)
	// Truncate cuts name to size bytes. The write-ahead log uses it to drop
	// a torn tail before reopening the log for append.
	Truncate(name string, size int64) error
	// Rename atomically replaces newpath with oldpath (POSIX rename
	// semantics: it either fully happens or does not happen at all).
	Rename(oldpath, newpath string) error
	// Remove deletes a file or empty directory.
	Remove(name string) error
	// RemoveAll deletes path and everything under it.
	RemoveAll(path string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm os.FileMode) error
	// ReadDir lists dir, sorted by filename.
	ReadDir(dir string) ([]os.DirEntry, error)
	// Stat returns file metadata.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making renames and creates inside it
	// durable. Required between "rename into place" and "declare done": a
	// rename is atomic but not durable until its directory is synced.
	SyncDir(dir string) error
}

// osFS is the passthrough production implementation.
type osFS struct{}

// OS returns the passthrough filesystem backed by package os.
func OS() FS { return osFS{} }

func (osFS) Create(name string) (File, error) {
	return os.Create(name)
}

func (osFS) Open(name string) (File, error) {
	return os.Open(name)
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error {
	return os.MkdirAll(dir, perm)
}
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Stat(name string) (os.FileInfo, error)     { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close() //grovevet:ignore droppederr the sync error is already being returned
		return err
	}
	return d.Close()
}

// ReadFile reads the whole of name through fs.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(f)
	if err != nil {
		f.Close() //grovevet:ignore droppederr the read error is already being returned
		return nil, err
	}
	return b, f.Close()
}

// WriteFileAtomic durably replaces name with data: it writes name.tmp,
// fsyncs it, renames it over name and fsyncs the directory, so a crash at
// any point leaves either the old complete file or the new complete file —
// never a torn mix.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("fsio: atomic write %s: %w", name, err)
	}
	cleanup := func(err error) error {
		f.Close()      //grovevet:ignore droppederr the original write error is already being returned
		fs.Remove(tmp) //grovevet:ignore droppederr best-effort cleanup of the temp file after a failed write
		return fmt.Errorf("fsio: atomic write %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp) //grovevet:ignore droppederr best-effort cleanup of the temp file after a failed close
		return fmt.Errorf("fsio: atomic write %s: %w", name, err)
	}
	if err := fs.Rename(tmp, name); err != nil {
		fs.Remove(tmp) //grovevet:ignore droppederr best-effort cleanup of the temp file after a failed rename
		return fmt.Errorf("fsio: atomic write %s: %w", name, err)
	}
	if err := fs.SyncDir(filepath.Dir(name)); err != nil {
		return fmt.Errorf("fsio: atomic write %s: %w", name, err)
	}
	return nil
}

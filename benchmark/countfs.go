package main

import (
	"sync/atomic"

	"grove/internal/fsio"
)

// fsCounts is what a countingFS has seen.
type fsCounts struct {
	Writes, WriteBytes int64 // File.Write calls and the bytes they wrote
	Reads, ReadBytes   int64 // File.Read and File.ReadAt calls and the bytes they returned
	Syncs              int64 // File.Sync and FS.SyncDir calls
	Renames            int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		Writes: a.Writes - b.Writes, WriteBytes: a.WriteBytes - b.WriteBytes,
		Reads: a.Reads - b.Reads, ReadBytes: a.ReadBytes - b.ReadBytes,
		Syncs: a.Syncs - b.Syncs, Renames: a.Renames - b.Renames,
	}
}

// countingFS passes every operation to the FS it wraps and counts the ones
// that move data or make it durable. The traced run hands it to AttachWALFS,
// SaveFS and LoadFS to see a workload's device traffic from outside.
// Counters are atomic because a WAL's group commit syncs off the caller's
// goroutine.
type countingFS struct {
	fsio.FS
	writes, writeBytes, reads, readBytes, syncs, renames atomic.Int64
}

func newCountingFS(fs fsio.FS) *countingFS { return &countingFS{FS: fs} }

func (c *countingFS) counts() fsCounts {
	return fsCounts{
		Writes: c.writes.Load(), WriteBytes: c.writeBytes.Load(),
		Reads: c.reads.Load(), ReadBytes: c.readBytes.Load(),
		Syncs: c.syncs.Load(), Renames: c.renames.Load(),
	}
}

func (c *countingFS) wrap(f fsio.File, err error) (fsio.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Create(name string) (fsio.File, error)     { return c.wrap(c.FS.Create(name)) }
func (c *countingFS) Open(name string) (fsio.File, error)       { return c.wrap(c.FS.Open(name)) }
func (c *countingFS) OpenAppend(name string) (fsio.File, error) { return c.wrap(c.FS.OpenAppend(name)) }

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	fsio.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

package wal

import (
	"io/fs"
	"os"
)

// FS is the filesystem surface the log (and the HDNS snapshot persister)
// writes through. It exists so the durability tests can slide a fault
// injector (internal/fault.FS) under every disk operation — short
// writes, failed fsyncs, torn writes at crash points, ENOSPC, read-side
// bit flips — without the production path paying anything: OS, the
// passthrough, is the default everywhere and each method is a direct
// os call.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// OpenFile opens for writing (the log's append path); read paths go
	// through ReadFile so a whole segment is one injection point.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp is no longer called by the log or the snapshot writer
	// (a snapshot is written through OpenFile, with the segments' mode).
	// It stays because the benchmark's countingFS (bench/trace.go) calls
	// it on the FS it wraps; it goes when the benchmark next changes.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// File is the open-file surface FS hands out.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// OS is the passthrough FS used outside fault-injection tests.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error  { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error)    { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

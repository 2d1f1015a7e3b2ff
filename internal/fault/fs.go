package fault

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"sync"

	"gondi/internal/wal"
)

// Injected storage-fault errors. They are distinct sentinels so tests can
// assert exactly which fault a failure came from; production code must
// treat them like their real counterparts (ENOSPC, EIO, power loss).
var (
	// ErrNoSpace is an injected write failure: the device refused the
	// bytes and nothing of this write persisted (ENOSPC, quota, EIO).
	ErrNoSpace = errors.New("fault: injected write failure (no space)")
	// ErrSyncFailed is an injected fsync failure: the OS accepted the
	// write but could not promise it reached stable storage.
	ErrSyncFailed = errors.New("fault: injected fsync failure")
	// ErrTornWrite is an injected short write: a prefix of the bytes
	// persisted before the failure (the mid-write power-loss signature).
	ErrTornWrite = errors.New("fault: injected torn write")
	// ErrCrashed marks every operation at and after a crash point: the
	// process is "dead" — the write in flight tore and nothing later
	// reaches the disk.
	ErrCrashed = errors.New("fault: crashed at injected crash point")
)

// FSConfig tunes a filesystem injector. Probabilities are per operation
// in [0, 1); zero fields inject nothing. Crash points are armed
// separately with SetCrashPoint.
type FSConfig struct {
	// Seed makes the fault schedule reproducible; 0 is a valid seed.
	Seed int64
	// WriteErrProb is the probability a file write fails wholesale with
	// ErrNoSpace (no bytes persisted).
	WriteErrProb float64
	// TornWriteProb is the probability a file write persists only a
	// prefix and fails with ErrTornWrite.
	TornWriteProb float64
	// SyncErrProb is the probability an fsync fails with ErrSyncFailed.
	SyncErrProb float64
	// BitFlipProb is the probability a ReadFile returns the file's
	// contents with one bit flipped (read-side corruption; the file on
	// disk is untouched, so retries may see clean data — exactly like a
	// marginal read path).
	BitFlipProb float64
}

// FS wraps a wal.FS and injects storage faults deterministically: fault
// decisions are a pure function of the seed and the operation sequence,
// so a serialized workload replays the identical fault schedule every
// run. Beyond the probabilistic faults, FS counts every durability
// boundary — file create, write, sync, close, rename, remove, truncate —
// and SetCrashPoint(k) simulates power loss at exactly the k-th one: that
// operation tears (a write persists only a prefix; anything else does not
// happen) and every later operation fails with ErrCrashed. Walking k
// across Boundaries() is the crash-point matrix.
type FS struct {
	base wal.FS
	cfg  FSConfig

	mu      sync.Mutex
	rng     *rand.Rand
	ops     uint64 // durability boundaries consumed
	crashAt uint64 // 0 = no crash point armed
	crashed bool
	enabled bool
}

var _ wal.FS = (*FS)(nil)

// NewFS builds an injector over base (wal.OS for real disks), initially
// enabled.
func NewFS(base wal.FS, cfg FSConfig) *FS {
	if base == nil {
		base = wal.OS
	}
	return &FS{base: base, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), enabled: true}
}

// SetEnabled gates the probabilistic faults; an armed crash point fires
// regardless.
func (f *FS) SetEnabled(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.enabled = on
}

// SetCrashPoint arms power loss at the k-th durability boundary from now
// (1-based, counting from the current operation count). 0 disarms.
func (f *FS) SetCrashPoint(k uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k == 0 {
		f.crashAt = 0
		return
	}
	f.crashAt = f.ops + k
}

// Crashed reports whether the armed crash point has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Boundaries reports how many durability boundaries the workload has
// crossed — the size of its crash-point matrix.
func (f *FS) Boundaries() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// fsDecision is the fault chosen for one durability boundary.
type fsDecision struct {
	crash    bool // this op is the crash point (tears, then dead)
	dead     bool // a crash already happened; nothing reaches the disk
	writeErr bool
	torn     bool
	syncErr  bool
}

// boundary consumes one durability-boundary slot and draws its faults.
// One draw per fault class keeps the stream's consumption fixed per
// operation (the Injector discipline).
func (f *FS) boundary() fsDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fsDecision{dead: true}
	}
	f.ops++
	if f.crashAt != 0 && f.ops >= f.crashAt {
		f.crashed = true
		return fsDecision{crash: true}
	}
	var d fsDecision
	pw, pt, ps := f.rng.Float64(), f.rng.Float64(), f.rng.Float64()
	if !f.enabled {
		return d
	}
	if f.cfg.WriteErrProb > 0 && pw < f.cfg.WriteErrProb {
		d.writeErr = true
	}
	if f.cfg.TornWriteProb > 0 && pt < f.cfg.TornWriteProb {
		d.torn = true
	}
	if f.cfg.SyncErrProb > 0 && ps < f.cfg.SyncErrProb {
		d.syncErr = true
	}
	return d
}

// dead reports whether the crash point has fired (reads fail too: the
// process is gone).
func (f *FS) dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// --- read-side surface ---

func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	if f.dead() {
		return ErrCrashed
	}
	return f.base.MkdirAll(dir, perm)
}

func (f *FS) ReadDir(dir string) ([]fs.DirEntry, error) {
	if f.dead() {
		return nil, ErrCrashed
	}
	return f.base.ReadDir(dir)
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if f.dead() {
		return nil, ErrCrashed
	}
	b, err := f.base.ReadFile(name)
	if err != nil {
		return b, err
	}
	f.mu.Lock()
	flip := -1
	if f.enabled && f.cfg.BitFlipProb > 0 && len(b) > 0 && f.rng.Float64() < f.cfg.BitFlipProb {
		flip = f.rng.Intn(len(b) * 8)
	}
	f.mu.Unlock()
	if flip >= 0 {
		// Corrupt a copy: the disk is clean, the read path is not.
		c := append([]byte(nil), b...)
		c[flip/8] ^= 1 << (flip % 8)
		return c, nil
	}
	return b, nil
}

// --- durability boundaries ---

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	d := f.boundary()
	if d.crash || d.dead {
		return nil, ErrCrashed
	}
	if d.writeErr {
		return nil, ErrNoSpace
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FS) CreateTemp(dir, pattern string) (wal.File, error) {
	d := f.boundary()
	if d.crash || d.dead {
		return nil, ErrCrashed
	}
	if d.writeErr {
		return nil, ErrNoSpace
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	d := f.boundary()
	switch {
	case d.crash, d.dead:
		return ErrCrashed
	case d.writeErr:
		return ErrNoSpace
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	d := f.boundary()
	switch {
	case d.crash, d.dead:
		return ErrCrashed
	case d.writeErr:
		return ErrNoSpace
	}
	return f.base.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	d := f.boundary()
	switch {
	case d.crash, d.dead:
		return ErrCrashed
	case d.writeErr:
		return ErrNoSpace
	}
	return f.base.Truncate(name, size)
}

// faultFile applies per-operation fault decisions to one open file. All
// files handed out by FS are write-path files (reads go through
// ReadFile), so every method is a durability boundary.
type faultFile struct {
	fs *FS
	f  wal.File
}

func (ff *faultFile) Name() string { return ff.f.Name() }

func (ff *faultFile) Write(p []byte) (int, error) {
	d := ff.fs.boundary()
	switch {
	case d.dead:
		return 0, ErrCrashed
	case d.crash:
		// Power loss mid-write: a prefix reaches the disk, the caller
		// never hears back. Half the buffer keeps the tear mid-record
		// for any record longer than two bytes.
		if len(p) > 1 {
			_, _ = ff.f.Write(p[:len(p)/2])
		}
		return 0, ErrCrashed
	case d.writeErr:
		return 0, ErrNoSpace
	case d.torn:
		n := len(p) / 2
		if n > 0 {
			_, _ = ff.f.Write(p[:n])
		}
		return n, ErrTornWrite
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	d := ff.fs.boundary()
	switch {
	case d.crash, d.dead:
		return ErrCrashed
	case d.syncErr:
		return ErrSyncFailed
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	d := ff.fs.boundary()
	if d.crash || d.dead {
		// The OS file is abandoned, exactly like a killed process; close
		// the real handle so tests do not leak descriptors.
		_ = ff.f.Close()
		return ErrCrashed
	}
	return ff.f.Close()
}

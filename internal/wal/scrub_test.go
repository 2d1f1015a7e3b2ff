package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendN appends and syncs n distinct records.
func appendN(t *testing.T, l *Log, lo, n int) {
	t.Helper()
	for i := lo; i < lo+n; i++ {
		if err := l.Append([]byte(strings.Repeat("x", 20) + string(rune('a'+i%26)))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// failFS flips every write/sync to an error once armed.
type failFS struct {
	FS
	fail bool
}

type failFile struct {
	File
	fs *failFS
}

var errDiskFull = errors.New("disk full")

func (f *failFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, fs: f}, nil
}

func (ff *failFile) Write(p []byte) (int, error) {
	if ff.fs.fail {
		return 0, errDiskFull
	}
	return ff.File.Write(p)
}

func (ff *failFile) Sync() error {
	if ff.fs.fail {
		return errDiskFull
	}
	return ff.File.Sync()
}

// A failed write must seal the log — every later append refuses with
// ErrSealed instead of appending past a possibly-partial frame — and a
// successful Rotate must unseal it.
func TestWriteFailureSealsUntilRotate(t *testing.T) {
	ffs := &failFS{FS: OS}
	l, err := OpenFS(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 3)

	ffs.fail = true
	if err := l.Append([]byte("doomed")); !errors.Is(err, ErrSealed) {
		t.Fatalf("failed append: err=%v, want ErrSealed", err)
	}
	// Sealed is sticky: even with the disk healthy again, appending to
	// the damaged segment is refused.
	ffs.fail = false
	if err := l.Append([]byte("after")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after seal: err=%v, want ErrSealed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrSealed) {
		t.Fatalf("sync after seal: err=%v, want ErrSealed", err)
	}
	if l.Sealed() == nil {
		t.Fatal("Sealed() = nil on a sealed log")
	}

	if _, err := l.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if l.Sealed() != nil {
		t.Fatalf("still sealed after rotate: %v", l.Sealed())
	}
	if err := l.Append([]byte("recovered")); err != nil {
		t.Fatalf("append after rotate: %v", err)
	}
}

// A failed fsync seals too: the kernel may have dropped the dirty pages,
// so records since the last good sync cannot be promised.
func TestSyncFailureSeals(t *testing.T) {
	ffs := &failFS{FS: OS}
	l, err := OpenFS(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	ffs.fail = true
	if err := l.Sync(); !errors.Is(err, ErrSealed) {
		t.Fatalf("failed sync: err=%v, want ErrSealed", err)
	}
	ffs.fail = false
	if err := l.Append([]byte("rec2")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after failed sync: err=%v, want ErrSealed", err)
	}
}

// A torn tail — the pure-crash signature — must scrub clean: truncated
// away, no quarantine, all whole records fed.
func TestScrubHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	l.Close()

	// Tear the tail mid-frame.
	path := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	res, err := l2.Scrub(func([]byte) error { return nil })
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !res.TornTail || res.Records != 4 || len(res.Quarantined) != 0 || res.Corruption != nil {
		t.Fatalf("torn tail scrub: %+v", res)
	}
	// The log must be appendable and replayable afterwards.
	if err := l2.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := l2.Scrub(func([]byte) error { n++; return nil }); err != nil || n != 5 {
		t.Fatalf("replay after heal: n=%d err=%v", n, err)
	}
}

// Mid-log corruption — a CRC mismatch away from the tail — must
// quarantine the damaged segment and everything after it, feed the
// records before the damage, and leave a fresh appendable segment whose
// sequence number cannot collide with the quarantined files.
func TestScrubQuarantinesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 4)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 3)
	l.Close()

	// Flip a byte inside the first record's payload in segment 1.
	path := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[12] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	fed := 0
	res, err := l2.Scrub(func([]byte) error { fed++; return nil })
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if res.Corruption == nil || !errors.Is(res.Corruption, ErrCorrupt) {
		t.Fatalf("corruption not classified: %+v", res)
	}
	if len(res.Quarantined) != 2 {
		t.Fatalf("quarantined %v, want both segments", res.Quarantined)
	}
	if fed != res.Records || fed >= 4 {
		t.Fatalf("fed %d records past the damage (result %+v)", fed, res)
	}
	for _, q := range res.Quarantined {
		if !strings.HasSuffix(q, QuarantineSuffix) {
			t.Fatalf("quarantine path %q lacks suffix", q)
		}
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("quarantined file missing: %v", err)
		}
	}
	// Fresh segment numbered past everything seen; appendable.
	if _, err := os.Stat(filepath.Join(dir, segName(3))); err != nil {
		t.Fatalf("fresh segment: %v", err)
	}
	if err := l2.Append([]byte("fresh")); err != nil {
		t.Fatalf("append after quarantine: %v", err)
	}
}

// Damage in a non-final segment, even a short record, is never a torn
// tail: only the active segment's end can tear in a crash.
func TestScrubShortRecordInOldSegmentQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 3)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 2)
	l.Close()

	path := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	res, err := l2.Scrub(func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.TornTail || len(res.Quarantined) != 2 || !errors.Is(res.Corruption, ErrTruncated) {
		t.Fatalf("short old segment: %+v", res)
	}
}

// QuarantineAll preserves every segment aside (lineage anchor lost) and
// leaves a fresh appendable log.
func TestQuarantineAll(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 3)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 2)
	q, err := l.QuarantineAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 {
		t.Fatalf("quarantined %v, want 2 segments", q)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := l.Scrub(func([]byte) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("replay after quarantine-all: n=%d err=%v", n, err)
	}
}

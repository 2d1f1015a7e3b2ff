// Package wal is an incremental write-ahead log for replica persistence:
// an append-only sequence of length-prefixed, CRC-framed records split
// across rotating segment files. The HDNS node appends every applied
// replicated op, so a restart replays snapshot + WAL tail instead of
// depending on the last whole-table snapshot, and background compaction
// (Rotate, then snapshot, then Prune) bounds replay work without ever
// holding the store lock for the duration of a snapshot.
//
// Record framing follows the rpc codec discipline: a record either
// parses exactly or is rejected, encoding appends into a pooled buffer,
// and the tail of the last segment — the only place a crash can tear a
// record — is truncated back to the last whole record by Scrub.
//
// Storage faults are first-class: a failed write or fsync seals the log
// (ErrSealed — callers surface unavailability instead of silently
// dropping records), and Scrub distinguishes the benign crash signature
// (a torn tail, healed by truncation) from mid-log corruption (the
// damaged segment and everything after it is quarantined aside, never
// silently replayed past). All disk I/O goes through the FS interface
// so internal/fault can inject ENOSPC, fsync failures, torn writes,
// crash points, and read-side bit flips deterministically.
//
// Frame layout (all big-endian):
//
//	length uint32   payload byte count
//	crc    uint32   CRC-32C (Castagnoli) of the payload
//	payload
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// MaxRecord bounds one record's payload, guarding replay against a
// corrupt length field allocating unbounded buffers.
const MaxRecord = 16 << 20

// headerSize is the fixed per-record framing overhead.
const headerSize = 8

// QuarantineSuffix is appended to a segment file's name when Scrub moves
// it aside: the data is preserved for forensics and repair audit, but no
// replay will ever read it again.
const QuarantineSuffix = ".quarantined"

var (
	// ErrTruncated marks an incomplete record: the framing promises more
	// bytes than remain. At the tail of the last segment this is the
	// benign crash signature and Scrub heals it by truncation.
	ErrTruncated = errors.New("wal: truncated record")
	// ErrCorrupt marks a record that is structurally complete but wrong:
	// CRC mismatch or an oversized length. Corruption is never healed
	// silently away from the tail.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrSealed marks a log that stopped accepting appends after a
	// persistent write or fsync failure (ENOSPC, EIO): the active
	// segment's tail is unknowable, so continuing to append would bury
	// a hole mid-file. A successful Rotate — a fresh segment on
	// possibly-recovered storage — unseals.
	ErrSealed = errors.New("wal: sealed after storage failure")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends payload's framed encoding to dst and returns the
// extended slice (the rpc appendFrame idiom: no intermediate buffers).
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// ReadRecord decodes the first framed record in b. The returned payload
// aliases b; rest is the remainder after the record. A record parses
// exactly or not at all: short input is ErrTruncated, a bad CRC or
// oversized length is ErrCorrupt.
func ReadRecord(b []byte) (payload, rest []byte, err error) {
	if len(b) < headerSize {
		return nil, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(b[:4])
	if n > MaxRecord {
		return nil, nil, fmt.Errorf("%w: length %d exceeds limit", ErrCorrupt, n)
	}
	want := binary.BigEndian.Uint32(b[4:8])
	body := b[headerSize:]
	if uint32(len(body)) < n {
		return nil, nil, ErrTruncated
	}
	payload = body[:n]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return payload, body[n:], nil
}

// bufPool recycles append-path buffers (one frame per Append call).
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// segment is one on-disk log file.
type segment struct {
	seq  uint64
	path string
	size int64
}

// Log is a directory of WAL segments. One writer appends to the newest
// segment; Rotate starts a fresh segment so compaction can snapshot and
// then Prune everything the snapshot covers.
type Log struct {
	dir string
	fs  FS

	mu     sync.Mutex
	segs   []segment // sorted by seq; last is the active one
	f      File      // active segment, opened for append
	size   int64     // total bytes across all segments
	sealed error     // first persistent write/fsync failure; nil = healthy
}

// segName formats a segment file name; lexical order equals seq order.
func segName(seq uint64) string { return fmt.Sprintf("seg-%016d.wal", seq) }

// Open creates dir if needed, discovers existing segments, and opens the
// newest for append (creating seg 1 in an empty directory). Call Scrub
// before the first Append so a torn tail is truncated away rather than
// buried mid-file.
func Open(dir string) (*Log, error) { return OpenFS(OS, dir) }

// OpenFS is Open over an explicit filesystem (fault injection; OS
// otherwise).
func OpenFS(fsys FS, dir string) (*Log, error) {
	if fsys == nil {
		fsys = OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, fs: fsys}
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.wal", &seq); err != nil || segName(seq) != e.Name() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, segment{seq: seq, path: filepath.Join(dir, e.Name()), size: info.Size()})
		l.size += info.Size()
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].seq < l.segs[j].seq })
	if len(l.segs) == 0 {
		if err := l.openSegmentLocked(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	active := &l.segs[len(l.segs)-1]
	f, err := fsys.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	return l, nil
}

// openSegmentLocked creates and activates segment seq. l.mu must be held.
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if l.f != nil {
		if cerr := l.f.Close(); cerr != nil {
			f.Close()
			l.fs.Remove(path)
			return cerr
		}
	}
	l.f = f
	l.segs = append(l.segs, segment{seq: seq, path: path})
	return nil
}

// Append writes one record to the active segment. The write goes to the
// OS in one syscall (surviving a process crash); call Sync to force it
// to stable storage. A write failure (ENOSPC, EIO) seals the log — this
// and every later Append fails with an error matching ErrSealed until a
// Rotate succeeds — because a partial frame may have landed and
// appending past it would bury the damage mid-segment.
func (l *Log) Append(payload []byte) error {
	bp := bufPool.Get().(*[]byte)
	b := AppendRecord((*bp)[:0], payload)
	l.mu.Lock()
	var err error
	switch {
	case l.f == nil:
		err = os.ErrClosed
	case l.sealed != nil:
		err = fmt.Errorf("%w: %v", ErrSealed, l.sealed)
	default:
		if _, werr := l.f.Write(b); werr != nil {
			l.sealed = werr
			err = fmt.Errorf("%w: %v", ErrSealed, werr)
		}
	}
	if err == nil {
		l.size += int64(len(b))
		l.segs[len(l.segs)-1].size += int64(len(b))
	}
	l.mu.Unlock()
	*bp = b
	bufPool.Put(bp)
	return err
}

// Sync forces appended records to stable storage. An fsync failure seals
// the log like a failed Append: the kernel may have dropped the dirty
// pages, so records since the last successful sync cannot be promised.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return os.ErrClosed
	}
	if l.sealed != nil {
		return fmt.Errorf("%w: %v", ErrSealed, l.sealed)
	}
	if err := l.f.Sync(); err != nil {
		l.sealed = err
		return fmt.Errorf("%w: %v", ErrSealed, err)
	}
	return nil
}

// Sealed returns the failure that sealed the log, or nil while healthy.
func (l *Log) Sealed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrSealed, l.sealed)
}

// Size returns the total bytes across all segments — the compaction
// trigger the node's housekeeping loop polls.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Segments returns the number of on-disk segments (diagnostics).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Rotate seals the active segment and starts a new one, returning the
// new segment's sequence number. Records already appended stay where
// they are; a snapshot taken *after* Rotate therefore covers every
// record in segments below the returned boundary, making
// Prune(boundary) safe once that snapshot is durable. A successful
// Rotate also unseals a storage-failed log: the fresh segment lands on
// whatever space the failure left, and the old segment's damage is
// bounded behind the rotation boundary.
func (l *Log) Rotate() (boundary uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, os.ErrClosed
	}
	next := l.segs[len(l.segs)-1].seq + 1
	if err := l.openSegmentLocked(next); err != nil {
		return 0, err
	}
	l.sealed = nil
	return next, nil
}

// Prune deletes all segments with sequence numbers below boundary,
// reclaiming space the latest snapshot covers. The active segment is
// never pruned.
func (l *Log) Prune(boundary uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	active := l.segs[len(l.segs)-1].seq
	keep := l.segs[:0]
	var firstErr error
	for _, s := range l.segs {
		if s.seq >= boundary || s.seq == active {
			keep = append(keep, s)
			continue
		}
		if err := l.fs.Remove(s.path); err != nil && firstErr == nil {
			firstErr = err
			keep = append(keep, s)
			continue
		}
		l.size -= s.size
	}
	l.segs = keep
	return firstErr
}

// Close flushes and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// ScrubResult reports what a Scrub pass found and repaired.
type ScrubResult struct {
	// Records is the count of healthy records fed to fn.
	Records int
	// TornTail reports that the last segment ended mid-record — the
	// benign crash signature — and was truncated back to whole records.
	TornTail bool
	// Quarantined lists segment files moved aside (with
	// QuarantineSuffix) because of mid-log corruption. Empty after a
	// clean pass or a pure torn tail.
	Quarantined []string
	// Corruption details the damage that forced the quarantine (wraps
	// ErrCorrupt or ErrTruncated); nil when nothing was quarantined.
	Corruption error
}

// Scrub verifies and replays the log, classifying damage instead of
// refusing:
//
//   - A torn tail — ErrTruncated at the very end of the last segment,
//     the only signature a pure crash can leave (a tear always shortens
//     the final frame, it cannot corrupt a checksum mid-file) — is
//     truncated away.
//   - Anything else — a CRC mismatch anywhere, or a short record in a
//     non-final segment — is real corruption: the damaged segment and
//     every segment after it (their records are unanchored once the
//     version chain has a hole) are renamed aside with QuarantineSuffix,
//     a fresh active segment is opened, and the damage is reported in
//     the result rather than applied or silently dropped.
//
// Records before the damage are still fed to fn: they extend the
// restored state as far as the disk can prove it, and the caller decides
// how to repair the rest (state transfer from a replica). Scrub holds
// the log lock; run it before serving.
func (l *Log) Scrub(fn func(payload []byte) error) (ScrubResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var res ScrubResult
	for i := 0; i < len(l.segs); i++ {
		s := l.segs[i]
		data, err := l.fs.ReadFile(s.path)
		if err != nil {
			return res, err
		}
		off := 0
		rest := data
		for len(rest) > 0 {
			payload, next, rerr := ReadRecord(rest)
			if rerr != nil {
				if i == len(l.segs)-1 && errors.Is(rerr, ErrTruncated) {
					if terr := l.truncateActiveLocked(int64(off)); terr != nil {
						return res, terr
					}
					res.TornTail = true
					return res, nil
				}
				res.Corruption = fmt.Errorf("wal: segment %s offset %d: %w", s.path, off, rerr)
				return res, l.quarantineLocked(i, &res)
			}
			if err := fn(payload); err != nil {
				return res, err
			}
			res.Records++
			off += headerSize + len(payload)
			rest = next
		}
	}
	return res, nil
}

// QuarantineAll moves every non-empty segment aside and opens a fresh
// active one. The caller has determined the log's lineage anchor is lost
// — its snapshot failed verification, so every record's version is
// unanchored — and preserving the segments for forensics beats replaying
// them into a version gap. Returns the quarantined paths.
func (l *Log) QuarantineAll() ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 || l.size == 0 {
		return nil, nil
	}
	var res ScrubResult
	err := l.quarantineLocked(0, &res)
	return res.Quarantined, err
}

// quarantineLocked moves segments[from:] aside and opens a fresh active
// segment numbered past everything seen, so new appends can never
// collide with a quarantined file. l.mu must be held.
func (l *Log) quarantineLocked(from int, res *ScrubResult) error {
	if l.f != nil {
		// The active segment is always in the quarantined range (it is
		// the last one); release the handle before renaming under it.
		_ = l.f.Close()
		l.f = nil
	}
	maxSeq := l.segs[len(l.segs)-1].seq
	for _, s := range l.segs[from:] {
		qp := s.path + QuarantineSuffix
		if err := l.fs.Rename(s.path, qp); err != nil {
			return err
		}
		res.Quarantined = append(res.Quarantined, qp)
		l.size -= s.size
	}
	l.segs = l.segs[:from]
	return l.openSegmentLocked(maxSeq + 1)
}

// truncateActiveLocked cuts the active segment to size. l.mu held.
func (l *Log) truncateActiveLocked(size int64) error {
	s := &l.segs[len(l.segs)-1]
	if err := l.fs.Truncate(s.path, size); err != nil {
		return err
	}
	// Reopen so the append offset matches the new end (O_APPEND handles
	// this, but the bookkeeping below must agree with the file).
	l.size -= s.size - size
	s.size = size
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		f, err := l.fs.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		l.f = f
	}
	return nil
}

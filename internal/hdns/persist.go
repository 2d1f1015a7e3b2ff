package hdns

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gondi/internal/core"
	"gondi/internal/obs"
	"gondi/internal/wal"
)

// persister owns a durable node's state: a whole-tree snapshot file
// plus a WAL. Every applied op is appended to the log, and the snapshot
// is a compaction artifact rather than the unit of durability (the
// paper's §4.1 whole-table sync): a restart loads the snapshot and
// replays the WAL tail past it, so a replica holding millions of
// entries restarts from its last compaction point instead of its last
// full dump. A memory-only node has no persister: each method a Node
// calls is a no-op on a nil receiver.
//
// Compaction never blocks appliers for the duration of a snapshot. The
// order is Rotate (fast, starts a fresh segment), then snapshot (slow,
// concurrent ops keep appending to the new segment), then Prune: the
// snapshot is taken after the rotation, so it covers every record below
// the boundary, and records landing during the snapshot survive in the
// new segment. Replay skips records at or below the snapshot's version.
//
// Durability faults are first-class. Snapshots are written in the
// checksummed container (snapfile.go) and verified at load; every boot
// scrubs the WAL. A pure crash signature (torn tail) is healed by
// truncation; anything else — a CRC mismatch anywhere, a snapshot that
// fails verification, a hole in the version chain — is quarantined
// aside and reported in a DamageReport so the node can repair from a
// healthy replica instead of refusing to start or silently un-acking
// history.
type persister struct {
	fs           wal.FS
	snapshotPath string
	walDir       string
	compactBytes int64
	log          *wal.Log
	replayed     int // records applied during open (restart diagnostics)

	compacting atomic.Bool
	mu         sync.Mutex // serializes compactions
}

var (
	mWALAppendErrs = obs.Default.Counter("gondi_hdns_wal_append_errors_total",
		"WAL append failures (log sealed; writes surface storage unavailability).")
	mCompactions = obs.Default.Counter("gondi_hdns_wal_compactions_total",
		"Background WAL snapshot compactions completed.")
	mScrubErrs = obs.Default.Counter("gondi_wal_scrub_errors_total",
		"Durable-state verification failures found by scrub-on-start (snapshot or WAL quarantined).")
)

// defaultCompactBytes triggers compaction once the WAL outgrows this.
const defaultCompactBytes = 8 << 20

// errChainBroken marks a WAL record stream whose version chain cannot
// continue: a hole (acked history missing) or an undecodable op inside an
// intact CRC frame. Everything from the break on is unanchored.
var errChainBroken = errors.New("hdns: wal version chain broken")

// DamageReport says what scrub-on-start found wrong with a node's
// durable state and what it moved aside. A zero report (no quarantines)
// is a healthy boot — TornTail alone is the benign crash signature, not
// damage.
type DamageReport struct {
	// SnapshotQuarantined is where the snapshot file was moved when it
	// failed verification ("" = snapshot intact or absent).
	SnapshotQuarantined string
	// WALQuarantined lists segment files moved aside.
	WALQuarantined []string
	// TornTail reports the last segment ended mid-record and was healed
	// by truncation (benign: the crash interrupted an un-acked append).
	TornTail bool
	// Err is the typed corruption error describing the damage; non-nil
	// exactly when something was quarantined.
	Err *core.DataCorruptionError
}

// Files counts the durable files quarantined, snapshot and segments.
func (d *DamageReport) Files() int {
	n := len(d.WALQuarantined)
	if d.SnapshotQuarantined != "" {
		n++
	}
	return n
}

// Corrupt reports whether anything was quarantined — the node's local
// state is incomplete and it should repair from a replica.
func (d *DamageReport) Corrupt() bool { return d != nil && d.Files() > 0 }

// openPersistence restores durable state into a fresh store and returns
// the persister managing it plus the damage scrub-on-start found (never
// nil; check Corrupt). Either path makes the node durable, and the
// missing one is its sibling: the WAL directory snapshotPath+".wal", or
// the snapshot walDir+".snap". With both empty the node is memory-only
// and the persister is nil. fsys nil means the real filesystem.
func openPersistence(fsys wal.FS, snapshotPath, walDir string, compactBytes int64) (*persister, *Store, *DamageReport, error) {
	damage := &DamageReport{}
	switch {
	case snapshotPath == "" && walDir == "":
		return nil, NewStore(), damage, nil
	case walDir == "":
		walDir = snapshotPath + ".wal"
	case snapshotPath == "":
		snapshotPath = filepath.Clean(walDir) + ".snap"
	}
	if fsys == nil {
		fsys = wal.OS
	}
	if compactBytes <= 0 {
		compactBytes = defaultCompactBytes
	}
	p := &persister{fs: fsys, snapshotPath: snapshotPath, walDir: walDir, compactBytes: compactBytes}
	store := NewStore()
	if b, err := fsys.ReadFile(snapshotPath); err == nil {
		ver, raw, legacy, derr := decodeSnapshotFile(b)
		if derr == nil {
			if rerr := store.Restore(raw); rerr != nil {
				derr = fmt.Errorf("%w: tree decode: %v", ErrSnapshotCorrupt, rerr)
			} else if !legacy && ver != store.Version() {
				derr = fmt.Errorf("%w: lineage header says version %d, tree decodes to %d",
					ErrSnapshotCorrupt, ver, store.Version())
			}
		}
		if derr != nil {
			qp := snapshotPath + wal.QuarantineSuffix
			if rerr := fsys.Rename(snapshotPath, qp); rerr != nil {
				return nil, nil, nil, fmt.Errorf("hdns: quarantine snapshot: %v (while handling: %w)", rerr, derr)
			}
			damage.SnapshotQuarantined = qp
			damage.Err = &core.DataCorruptionError{Path: snapshotPath, Detail: "snapshot failed verification", Err: derr}
			mScrubErrs.Inc()
			store = NewStore() // a partial Restore must not leak
		}
	}
	l, err := wal.OpenFS(fsys, walDir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("hdns: wal: %w", err)
	}
	p.log = l
	if damage.SnapshotQuarantined != "" {
		// The log's lineage anchor is gone: every record's version is
		// relative to a snapshot that failed verification, so replaying
		// would hit a gap at the first record. Preserve it all aside.
		q, qerr := l.QuarantineAll()
		if qerr != nil {
			l.Close()
			return nil, nil, nil, fmt.Errorf("hdns: wal quarantine: %w", qerr)
		}
		damage.WALQuarantined = q
	} else if serr := p.scrub(store, damage); serr != nil {
		l.Close()
		return nil, nil, nil, serr
	}
	return p, store, damage, nil
}

// scrub is the one load path: verify + replay with damage
// classification, quarantining what cannot be proven. Returns an error
// only for I/O failures that prevent even the scrub.
func (p *persister) scrub(store *Store, damage *DamageReport) error {
	l := p.log
	res, serr := l.Scrub(func(b []byte) error { return p.applyRecord(store, b) })
	damage.TornTail = res.TornTail
	if len(res.Quarantined) > 0 {
		damage.WALQuarantined = res.Quarantined
		damage.Err = &core.DataCorruptionError{Path: res.Quarantined[0], Detail: "wal segment failed verification", Err: res.Corruption}
		mScrubErrs.Inc()
	}
	if serr != nil {
		if errors.Is(serr, errChainBroken) {
			// The break is inside CRC-intact records, so Scrub could not
			// see it; everything left is unanchored. Move it all aside.
			q, qerr := l.QuarantineAll()
			if qerr != nil {
				return fmt.Errorf("hdns: wal quarantine: %w", qerr)
			}
			damage.WALQuarantined = append(damage.WALQuarantined, q...)
			if damage.Err == nil {
				path := p.walDir
				if len(q) > 0 {
					path = q[0]
				}
				damage.Err = &core.DataCorruptionError{Path: path, Detail: "wal version chain broken", Err: serr}
			}
			mScrubErrs.Inc()
			return nil
		}
		return fmt.Errorf("hdns: wal scrub: %w", serr)
	}
	return nil
}

// writeSync writes b to f, fsyncs and closes it; the first failure wins.
func writeSync(f wal.File, b []byte) error {
	_, err := f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// applyRecord replays one WAL record onto store if it holds the store's
// next version. Records are version-stamped at append time, so one the
// snapshot already covers is skipped, and a version gap — acked history
// missing from both snapshot and log — breaks the chain, never silence.
// Failed ops were logged too (they consumed a version); they re-fail
// identically here, keeping the version stream exact.
func (p *persister) applyRecord(store *Store, payload []byte) error {
	ver, op, err := decodeWALOp(payload)
	if err != nil {
		return fmt.Errorf("%w: record undecodable: %v", errChainBroken, err)
	}
	switch have := store.Version(); {
	case ver <= have:
		return nil
	case ver != have+1:
		return fmt.Errorf("%w: store at %d, next record %d", errChainBroken, have, ver)
	}
	_, _, _ = store.ApplyVersioned(op)
	p.replayed++
	return nil
}

// RestoreInfo reports what rebuilding a store from durable state found.
type RestoreInfo struct {
	// Replayed is the number of WAL records applied on top of the
	// snapshot.
	Replayed int
	// Damage is the scrub's report (never nil; check Corrupt).
	Damage *DamageReport
}

// RestoreStoreFS rebuilds a replica's store from its durable state through
// an explicit filesystem — snapshot verification plus WAL scrub with
// torn-tail healing and corruption quarantine. This is exactly the
// restart path NewNode runs; the crash-point matrix test drives it.
func RestoreStoreFS(fsys wal.FS, snapshotPath, walDir string) (*Store, *RestoreInfo, error) {
	p, store, damage, err := openPersistence(fsys, snapshotPath, walDir, 0)
	if err != nil {
		return nil, nil, err
	}
	info := &RestoreInfo{Damage: damage}
	if p != nil {
		info.Replayed = p.replayed
		p.kill()
	}
	return store, info, nil
}

// RestoreStore is RestoreStoreFS on the real filesystem, returning the
// replayed-record count. It preserves the pre-scrub contract: damage
// that forced a quarantine is an error, because callers using this
// entry point (timing drills) expect an intact state.
func RestoreStore(snapshotPath, walDir string) (*Store, int, error) {
	store, info, err := RestoreStoreFS(nil, snapshotPath, walDir)
	if err != nil {
		return nil, 0, err
	}
	if info.Damage.Corrupt() {
		return nil, info.Replayed, info.Damage.Err
	}
	return store, info.Replayed, nil
}

// appendOp logs one applied op. A storage failure seals the log — the
// error (matching wal.ErrSealed) propagates so the applier can ack
// storage unavailability instead of silently dropping durability; the
// next compaction attempt rotates onto fresh space and unseals.
func (p *persister) appendOp(version uint64, op *Op) error {
	if p == nil {
		return nil
	}
	buf := encBufPool.Get().(*[]byte)
	b := appendWALOp((*buf)[:0], version, op)
	err := p.log.Append(b)
	if err != nil {
		mWALAppendErrs.Inc()
	}
	*buf = b
	encBufPool.Put(buf)
	return err
}

// encBufPool recycles encode buffers whose bytes the callee is done with
// on return: WAL appends here, request bodies in Client.call.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maybeCompact kicks a background compaction when the WAL has outgrown
// the threshold — or when a storage failure sealed it, since compaction
// begins with the Rotate that unseals (recovery retries ride the
// housekeeping cadence). Single-flight: an in-progress compaction
// absorbs later triggers, so it goes again if the records that landed
// meanwhile outgrew the threshold too.
func (p *persister) maybeCompact(store *Store) {
	if p == nil || p.log.Size() < p.compactBytes && p.log.Sealed() == nil {
		return
	}
	if !p.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		for p.compact(store) == nil {
			mCompactions.Inc()
			p.compacting.Store(false)
			if p.log.Size() < p.compactBytes || !p.compacting.CompareAndSwap(false, true) {
				return
			}
		}
		p.compacting.Store(false)
	}()
}

// compact rotates, snapshots, prunes. It is also how durable state is
// re-anchored after a jgroups state transfer replaced the store
// wholesale (crash-rejoin pull, PRIMARY PARTITION resync, or corruption
// repair): the local WAL then describes an abandoned lineage, and the
// prune drops it once the transferred tree is snapshotted. Safe to run
// concurrently with appliers; p.mu serializes compactions, so a slower
// one never writes an older snapshot over a newer one whose prune has
// already dropped the records between them.
func (p *persister) compact(store *Store) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	boundary, err := p.log.Rotate()
	if err != nil {
		return err
	}
	if err := p.writeSnapshot(store); err != nil {
		return err
	}
	return p.log.Prune(boundary)
}

// writeSnapshot persists the tree atomically (tmp + fsync + rename) in
// the checksummed container, with the WAL segments' mode: whoever can
// read the log can read the snapshot it depends on. The temp name is
// fixed, which is safe because p.mu serializes compactions.
func (p *persister) writeSnapshot(store *Store) error {
	b := encodeSnapshotFile(store.SnapshotVersioned())
	tmp := p.snapshotPath + ".tmp"
	f, err := p.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSync(f, b); err != nil {
		p.fs.Remove(tmp)
		return err
	}
	return p.fs.Rename(tmp, p.snapshotPath)
}

// sync flushes appended records to stable storage (periodic, from
// housekeeping — the durability analog of the paper's snapshot cadence).
func (p *persister) sync() error {
	if p == nil {
		return nil
	}
	return p.log.Sync()
}

// close performs the §4.1 exit persistence — a final compaction, so the
// snapshot holds the whole table and the log is empty — then closes the
// log.
func (p *persister) close(store *Store) error {
	if p == nil {
		return nil
	}
	err := p.compact(store)
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// kill closes the log as it stands — no snapshot, no rotation — leaving
// the durable state a power cut would.
func (p *persister) kill() {
	if p != nil {
		_ = p.log.Close()
	}
}

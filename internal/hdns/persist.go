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

// persister owns one node's durable state: an optional whole-tree
// snapshot file plus an optional WAL. With a WAL, the
// snapshot stops being the unit of durability (the paper's §4.1
// whole-table sync) and becomes a compaction artifact: every applied op
// is appended to the log, and a restart replays snapshot + WAL tail, so
// a replica holding millions of entries restarts from its last compaction
// point instead of its last full dump.
//
// Compaction never blocks appliers for the duration of a snapshot. The
// order is Rotate (fast, starts a fresh segment), then snapshot (slow,
// concurrent ops keep appending to the new segment), then Prune: the
// snapshot is taken after the rotation, so it covers every record below
// the boundary, and records landing during the snapshot survive in the
// new segment. Replay skips records at or below the snapshot's version.
//
// Durability faults are first-class. Snapshots are written in the
// checksummed container (snapfile.go) and verified at load; the WAL is
// scrubbed on any boot a clean-shutdown marker does not vouch for. A
// pure crash signature (torn tail) is healed by truncation; anything
// else — a CRC mismatch mid-log, a snapshot that fails verification, a
// hole in the version chain — is quarantined aside and reported in a
// DamageReport so the node can repair from a healthy replica instead of
// refusing to start or silently un-acking history.
type persister struct {
	fs           wal.FS
	snapshotPath string
	walDir       string
	compactBytes int64
	log          *wal.Log // nil = WAL disabled (legacy snapshot-only mode)
	replayed     int      // records applied during open (restart diagnostics)

	compacting atomic.Bool
	mu         sync.Mutex // serializes snapshot writes
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

// cleanMarkerName is the clean-shutdown marker file, written next to the
// WAL segments after a fully successful close (final snapshot, prune,
// sync, close). Its presence lets the next boot take the fast Replay
// path; it is consumed — removed — at open, so the marker vouches for
// exactly one boot and any crash afterwards forces a scrub.
const cleanMarkerName = "CLEAN"

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

// Corrupt reports whether anything was quarantined — the node's local
// state is incomplete and it should repair from a replica.
func (d *DamageReport) Corrupt() bool {
	return d != nil && (d.SnapshotQuarantined != "" || len(d.WALQuarantined) > 0)
}

// openPersistence restores durable state into a fresh store and returns
// the persister managing it plus the damage scrub-on-start found (never
// nil; check Corrupt). Either path may be empty; with both empty the
// node is memory-only (the persister is still returned, inert). fsys nil
// means the real filesystem.
func openPersistence(fsys wal.FS, snapshotPath, walDir string, compactBytes int64) (*persister, *Store, *DamageReport, error) {
	if fsys == nil {
		fsys = wal.OS
	}
	if compactBytes <= 0 {
		compactBytes = defaultCompactBytes
	}
	p := &persister{fs: fsys, snapshotPath: snapshotPath, walDir: walDir, compactBytes: compactBytes}
	damage := &DamageReport{}
	store := NewStore()
	if snapshotPath != "" {
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
	}
	if walDir != "" {
		l, err := wal.OpenFS(fsys, walDir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("hdns: wal: %w", err)
		}
		p.log = l
		clean := p.consumeCleanMarker()
		switch {
		case damage.SnapshotQuarantined != "":
			// The log's lineage anchor is gone: every record's version is
			// relative to a snapshot that failed verification, so replaying
			// would hit a gap at the first record. Preserve it all aside.
			q, qerr := l.QuarantineAll()
			if qerr != nil {
				l.Close()
				return nil, nil, nil, fmt.Errorf("hdns: wal quarantine: %w", qerr)
			}
			damage.WALQuarantined = q
		case clean:
			// Clean shutdown vouched for the log: fast replay, no
			// re-verification beyond the per-record CRC. If the marker
			// turns out to have lied (at-rest damage since), fall back to
			// the scrub — records already applied are version-skipped.
			if _, rerr := l.Replay(func(b []byte) error { return p.applyRecord(store, b) }); rerr == nil {
				break
			}
			fallthrough
		default:
			if serr := p.scrubInto(store, l, damage); serr != nil {
				l.Close()
				return nil, nil, nil, serr
			}
		}
	}
	return p, store, damage, nil
}

// scrubInto is the dirty-boot load path: verify + replay with damage
// classification, quarantining what cannot be proven. Returns an error
// only for I/O failures that prevent even the scrub.
func (p *persister) scrubInto(store *Store, l *wal.Log, damage *DamageReport) error {
	res, serr := l.Scrub(func(b []byte) error { return p.applyRecord(store, b) })
	damage.TornTail = damage.TornTail || res.TornTail
	if len(res.Quarantined) > 0 {
		damage.WALQuarantined = append(damage.WALQuarantined, res.Quarantined...)
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

// consumeCleanMarker reports whether the previous shutdown was clean,
// removing the marker so it vouches for this boot only.
func (p *persister) consumeCleanMarker() bool {
	if p.walDir == "" {
		return false
	}
	mp := filepath.Join(p.walDir, cleanMarkerName)
	if _, err := p.fs.Stat(mp); err != nil {
		return false
	}
	return p.fs.Remove(mp) == nil
}

// writeCleanMarker records a fully successful shutdown so the next boot
// may skip the scrub.
func (p *persister) writeCleanMarker() error {
	if p.walDir == "" {
		return nil
	}
	f, err := p.fs.OpenFile(filepath.Join(p.walDir, cleanMarkerName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	return writeSync(f, []byte("clean\n"))
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
	if p.log != nil {
		_ = p.log.Close()
	}
	return store, &RestoreInfo{Replayed: p.replayed, Damage: damage}, nil
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
	if p.log == nil {
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
// absorbs later triggers.
func (p *persister) maybeCompact(store *Store) {
	if p.log == nil || p.snapshotPath == "" {
		return
	}
	if p.log.Size() < p.compactBytes && p.log.Sealed() == nil {
		return
	}
	if !p.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.compacting.Store(false)
		_ = p.compact(store)
	}()
}

// compact rotates, snapshots, prunes. Safe to run concurrently with
// appliers; p.mu keeps snapshot writers from interleaving.
func (p *persister) compact(store *Store) error {
	if p.log == nil || p.snapshotPath == "" {
		return nil
	}
	boundary, err := p.log.Rotate()
	if err != nil {
		return err
	}
	if err := p.writeSnapshot(store); err != nil {
		return err
	}
	if err := p.log.Prune(boundary); err != nil {
		return err
	}
	mCompactions.Inc()
	return nil
}

// resetAfterStateTransfer re-anchors durable state after the store was
// wholesale replaced by a jgroups state transfer (crash-rejoin pull,
// PRIMARY PARTITION resync, or corruption repair). The local WAL
// describes the abandoned lineage — its versions are unrelated to the
// transferred tree — so the transferred state is snapshotted and the old
// log dropped before any new op is appended.
func (p *persister) resetAfterStateTransfer(store *Store) {
	if p.log == nil {
		return
	}
	boundary, err := p.log.Rotate()
	if err != nil {
		return
	}
	if p.snapshotPath != "" {
		if err := p.writeSnapshot(store); err != nil {
			return
		}
	}
	_ = p.log.Prune(boundary)
}

// writeSnapshot persists the tree atomically (tmp + fsync + rename) in
// the checksummed container.
func (p *persister) writeSnapshot(store *Store) error {
	if p.snapshotPath == "" {
		return nil
	}
	ver, raw, err := store.SnapshotVersioned()
	if err != nil {
		return err
	}
	b := encodeSnapshotFile(ver, raw)
	p.mu.Lock()
	defer p.mu.Unlock()
	dir := filepath.Dir(p.snapshotPath)
	tmp, err := p.fs.CreateTemp(dir, ".hdns-snap-*")
	if err != nil {
		return err
	}
	if err := writeSync(tmp, b); err != nil {
		p.fs.Remove(tmp.Name())
		return err
	}
	return p.fs.Rename(tmp.Name(), p.snapshotPath)
}

// sync flushes appended records to stable storage (periodic, from
// housekeeping — the durability analog of the paper's snapshot cadence).
func (p *persister) sync() {
	if p.log != nil {
		_ = p.log.Sync()
	}
}

// close performs the §4.1 exit persistence — a final snapshot — then
// prunes the now-covered log, closes it, and, when every step succeeded,
// writes the clean-shutdown marker so the next boot may skip the scrub.
func (p *persister) close(store *Store) error {
	err := p.writeSnapshot(store)
	if p.log != nil {
		if err == nil && p.snapshotPath != "" {
			if boundary, rerr := p.log.Rotate(); rerr == nil {
				_ = p.log.Prune(boundary)
			}
		}
		if cerr := p.log.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = p.writeCleanMarker()
		}
	}
	return err
}

package hdns

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"gondi/internal/fault"
	"gondi/internal/wal"
)

// Crash-point drill: simulate power loss at *every* durability boundary
// of the persistence pipeline — append writes, fsyncs, segment create /
// close, snapshot temp-file write / fsync / rename, prune removes — and
// prove that a restart after each one loses no acknowledged write and
// restores a consecutive version chain. A write counts as acknowledged
// only once its fsync returned success, matching what the node promises
// a client.
//
// The drill is deterministic: the same workload crosses the same
// boundaries in the same order every run, so crash point k means the
// same torn operation every time and a failure reproduces exactly.

// crashDrillConfig shapes the drill's workload.
type crashDrillConfig struct {
	// Entries is the number of synced binds the workload performs.
	Entries int
	// CompactAt lists op indices after which a full compaction (rotate,
	// snapshot, prune) runs, putting its write boundaries into the
	// matrix. Indices outside [0, Entries) are ignored.
	CompactAt []int
}

// crashPointResult summarizes a crash-point matrix run.
type crashPointResult struct {
	// Boundaries is the number of durability boundaries the intact
	// workload crosses — the size of the matrix.
	Boundaries int
	// Crashes is how many crash points were exercised (== Boundaries).
	Crashes int
	// TornTails counts restarts that healed a torn WAL tail by
	// truncation — the expected signature when the crash interrupted an
	// append.
	TornTails int
	// Quarantines counts restarts that quarantined state. A pure crash
	// must never look like corruption, so any non-zero value fails the
	// durability gate.
	Quarantines int
	// LostAcked counts acknowledged writes missing after a restart.
	// Must be zero: fsync'd means promised.
	LostAcked int
	// BrokenChains counts restarts whose restored version chain had a
	// hole or whose restore failed outright. Must be zero.
	BrokenChains int
}

func crashDrillEntry(i int) []string { return []string{fmt.Sprintf("e%05d", i)} }

// crashWorkload runs the drill's serialized workload through fsys:
// synced binds with compactions at the configured indices, then a clean
// close. acked tracks the highest version whose fsync succeeded. The
// returned error is expected (ErrCrashed) on crash runs; the caller
// inspects the disk, not the error.
func crashWorkload(fsys wal.FS, dir string, cfg crashDrillConfig, acked *uint64) error {
	compact := make(map[int]bool, len(cfg.CompactAt))
	for _, i := range cfg.CompactAt {
		compact[i] = true
	}
	snap := filepath.Join(dir, "replica.snap")
	walDir := filepath.Join(dir, "wal")
	p, st, _, err := openPersistence(fsys, snap, walDir, 0)
	if err != nil {
		return err
	}
	// Whatever happens, release the underlying file handle; a crashed
	// close is a no-op on the "disk" but must not leak the descriptor.
	defer func() { _ = p.log.Close() }()
	for i := 0; i < cfg.Entries; i++ {
		op := &Op{Kind: OpBind, Name: crashDrillEntry(i), Obj: []byte("10.0.0.1:9000")}
		_, ver, errStr := st.ApplyVersioned(op)
		if errStr != "" {
			return fmt.Errorf("hdns: crash drill apply %d: %s", i, errStr)
		}
		if err := p.appendOp(ver, op); err != nil {
			return err
		}
		if err := p.log.Sync(); err != nil {
			return err
		}
		atomic.StoreUint64(acked, ver)
		if compact[i] {
			if err := p.compact(st); err != nil {
				return err
			}
		}
	}
	return p.close(st)
}

// runCrashPointDrill sizes the matrix with an intact dry run, then
// replays the identical workload once per boundary with power loss
// injected exactly there, restarting from the survived files each time
// and checking the durability contract. root must be an empty scratch
// directory; each crash point works in its own subdirectory.
func runCrashPointDrill(root string, cfg crashDrillConfig) (*crashPointResult, error) {
	if cfg.Entries <= 0 {
		cfg.Entries = 48
	}
	dry := fault.NewFS(wal.OS, fault.FSConfig{})
	var acked uint64
	if err := crashWorkload(dry, filepath.Join(root, "dry"), cfg, &acked); err != nil {
		return nil, fmt.Errorf("hdns: crash drill dry run: %w", err)
	}
	res := &crashPointResult{Boundaries: int(dry.Boundaries())}
	for k := 1; k <= res.Boundaries; k++ {
		ffs := fault.NewFS(wal.OS, fault.FSConfig{})
		ffs.SetCrashPoint(uint64(k))
		kdir := filepath.Join(root, fmt.Sprintf("k%05d", k))
		var kacked uint64
		// The workload dies at the crash point by construction; the
		// verdict comes from what the next boot can prove from the disk.
		_ = crashWorkload(ffs, kdir, cfg, &kacked)
		res.Crashes++
		st, info, err := RestoreStoreFS(nil, filepath.Join(kdir, "replica.snap"), filepath.Join(kdir, "wal"))
		if err != nil {
			res.BrokenChains++
			continue
		}
		if info.Damage.TornTail {
			res.TornTails++
		}
		if info.Damage.Corrupt() {
			res.Quarantines++
		}
		if st.Version() < kacked {
			res.BrokenChains++
		}
		for i := uint64(0); i < kacked; i++ {
			if v := st.Lookup(crashDrillEntry(int(i))); !v.Exists {
				res.LostAcked++
			}
		}
	}
	return res, nil
}

package hdns

import "fmt"

// buildReplicaState fabricates one replica's on-disk durable state for
// restart drills: entries flat bindings of which the last walTail live
// only in the WAL, everything earlier covered by the snapshot. The
// layout matches a crash mid-epoch — the last compaction snapshotted
// at version entries-walTail and the node died with a synced tail —
// which is exactly what RestoreStore must rebuild.
func buildReplicaState(snapshotPath, walDir string, entries, walTail int) error {
	if walTail < 0 || walTail > entries {
		return fmt.Errorf("hdns: walTail %d out of range for %d entries", walTail, entries)
	}
	p, st, _, err := openPersistence(nil, snapshotPath, walDir, 0)
	if err != nil {
		return err
	}
	obj := []byte("10.0.0.1:9000")
	apply := func(i int, logged bool) error {
		op := &Op{Kind: OpBind, Name: []string{fmt.Sprintf("e%07d", i)}, Obj: obj}
		_, ver, errStr := st.ApplyVersioned(op)
		if errStr != "" {
			return fmt.Errorf("hdns: drill apply %d: %s", i, errStr)
		}
		if logged {
			if err := p.appendOp(ver, op); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < entries-walTail; i++ {
		if err := apply(i, false); err != nil {
			return err
		}
	}
	if err := p.writeSnapshot(st); err != nil {
		return err
	}
	for i := entries - walTail; i < entries; i++ {
		if err := apply(i, true); err != nil {
			return err
		}
	}
	if err := p.sync(); err != nil {
		return err
	}
	return p.log.Close()
}

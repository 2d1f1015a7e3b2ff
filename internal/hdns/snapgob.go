package hdns

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Builds before the op-stream snapshot (walrec.go) wrote snapshots and
// state transfers as a gob of gobSnapshot. This decode-only reader keeps
// them loadable: Restore sends here every snapshot whose first byte is
// not snapV1, and the next compaction rewrites the file as an op stream.
// It can go once the HDNS wires carry a version a peer checks.
type gobSnapshot struct {
	Version uint64
	Root    *entry // gob matches entry's exported field names
}

// decodeGobSnapshot hands apply the ops that rebuild a gob snapshot's
// tree and returns the store version it captured.
func decodeGobSnapshot(b []byte, apply func(op *Op)) (uint64, error) {
	snap := gobSnapshot{Root: newCtxEntry()}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return 0, fmt.Errorf("hdns: gob snapshot: %w", err)
	}
	treeOps(snap.Root, apply)
	return snap.Version, nil
}

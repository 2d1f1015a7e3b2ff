package hdns

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/jgroups"
)

// --- WAL persistence on the node restart path ---

func TestWALOpCodecRoundTrip(t *testing.T) {
	ops := []*Op{
		{Kind: OpBind, Name: []string{"dcl", "mokey"}, Obj: []byte("printer"),
			Attrs: map[string][]string{"type": {"lpr", "duplex"}}, LeaseMillis: 5000, Now: 1234567},
		{Kind: OpRename, ID: "n1-17", Name: []string{"a"}, Name2: []string{"b", "c"}},
		{Kind: OpModAttrs, Name: []string{"x"}, Mods: []ModRec{
			{Op: 0, ID: "k", Vals: []string{"v1", "v2"}}, {Op: 2, ID: "gone"}}},
		{Kind: OpRebind, Name: []string{"y"}, ReplaceAttrs: true},
		{Kind: OpUnbind, Name: nil},
	}
	for i, op := range ops {
		b := appendWALOp(nil, uint64(i+1), op)
		ver, got, err := decodeWALOp(b)
		if err != nil {
			t.Fatalf("op %d: decode: %v", i, err)
		}
		if ver != uint64(i+1) {
			t.Fatalf("op %d: version %d, want %d", i, ver, i+1)
		}
		if got.Kind != op.Kind || got.ID != op.ID || len(got.Name) != len(op.Name) ||
			len(got.Name2) != len(op.Name2) || string(got.Obj) != string(op.Obj) ||
			got.ReplaceAttrs != op.ReplaceAttrs || got.LeaseMillis != op.LeaseMillis ||
			got.Now != op.Now || len(got.Attrs) != len(op.Attrs) || len(got.Mods) != len(op.Mods) {
			t.Fatalf("op %d: round trip mismatch:\n got %+v\nwant %+v", i, got, op)
		}
		// Strict decode: any trailing byte is an error.
		if _, _, err := decodeWALOp(append(b, 0)); err == nil {
			t.Fatalf("op %d: trailing byte accepted", i)
		}
	}
}

// A node with a WAL must be restorable from disk *without* a clean
// shutdown: RestoreStore(snapshot, wal) is the crash path and must see
// every synced write even though no snapshot was ever taken.
func TestWALCrashRestartReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	snap := filepath.Join(dir, "replica.snap")
	walDir := filepath.Join(dir, "wal")
	f := jgroups.NewFabric()
	n, err := NewNode(NodeConfig{
		Group: "gwal", Transport: f.Endpoint("n1"), Stack: testStack(),
		ListenAddr: "127.0.0.1:0", SnapshotPath: snap, WALDir: walDir,
		SnapshotInterval: time.Hour, // housekeeping never syncs in this test
		WriteTimeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c := dialNode(t, n)
	for i := 0; i < 50; i++ {
		if err := c.Bind(ctx, []string{fmt.Sprintf("svc%d", i)}, []byte("obj"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A failed op consumes a version too; replay must reproduce it.
	if err := c.Bind(ctx, []string{"svc0"}, nil, nil, 0); !errors.Is(err, core.ErrAlreadyBound) {
		t.Fatalf("dup bind: %v", err)
	}
	n.pers.sync()

	st, replayed, err := RestoreStore(snap, walDir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if replayed == 0 {
		t.Fatal("restore replayed nothing; WAL is not being written")
	}
	if st.Len() != n.store.Len() {
		t.Fatalf("restored %d entries, live store has %d", st.Len(), n.store.Len())
	}
	if st.Version() != n.store.Version() {
		t.Fatalf("restored version %d, live %d", st.Version(), n.store.Version())
	}
	if v := st.Lookup([]string{"svc49"}); !v.Exists || string(v.Obj) != "obj" {
		t.Fatalf("restored lookup: %+v", v)
	}
}

// Compaction must not lose the tail: ops applied after Rotate live in
// the new segment, the snapshot covers everything before it, and a
// restart replays only the post-compaction records.
func TestWALCompactionKeepsTail(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "replica.snap")
	p, st, _, err := openPersistence(nil, snap, filepath.Join(dir, "wal"), 1)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			op := &Op{Kind: OpBind, Name: []string{fmt.Sprintf("e%d", i)}, Obj: []byte("v")}
			_, ver, errStr := st.ApplyVersioned(op)
			if errStr != "" {
				t.Fatalf("apply %d: %s", i, errStr)
			}
			if err := p.appendOp(ver, op); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
	}
	apply(0, 100)
	if err := p.compact(st); err != nil {
		t.Fatalf("compact: %v", err)
	}
	apply(100, 130)
	p.sync()

	st2, replayed, err := RestoreStore(snap, filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if replayed != 30 {
		t.Fatalf("replayed %d records, want just the 30 post-compaction ones", replayed)
	}
	if st2.Len() != st.Len() || st2.Version() != st.Version() {
		t.Fatalf("restored len=%d ver=%d, want len=%d ver=%d", st2.Len(), st2.Version(), st.Len(), st.Version())
	}
	if err := p.close(st); err != nil {
		t.Fatal(err)
	}
}

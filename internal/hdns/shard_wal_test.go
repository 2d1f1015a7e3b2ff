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
	"gondi/internal/shard"
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

// --- Sharded routing ---

// twoShardWorld builds a 2-group sharded deployment (one node per
// group) and a Router over direct clients.
func twoShardWorld(t *testing.T) (*Router, [2]*Node) {
	t.Helper()
	f := jgroups.NewFabric()
	var nodes [2]*Node
	conns := make([]Conn, 2)
	for i := 0; i < 2; i++ {
		n, err := NewNode(NodeConfig{
			Group:     fmt.Sprintf("gs-%d", i),
			Transport: f.Endpoint(jgroups.Address(fmt.Sprintf("s%d", i))),
			Stack:     testStack(), ListenAddr: "127.0.0.1:0",
			Shard:        shard.Assignment{Groups: 2, Index: i},
			WriteTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
		conns[i] = dialNode(t, n)
	}
	r, err := NewRouter(conns)
	if err != nil {
		t.Fatal(err)
	}
	return r, nodes
}

func TestRouterShardsWritesAndMergesRoot(t *testing.T) {
	ctx := context.Background()
	r, nodes := twoShardWorld(t)
	ring := shard.Cached(2)
	perGroup := [2]int{}
	for i := 0; i < 40; i++ {
		name := []string{fmt.Sprintf("svc%d", i)}
		if err := r.Bind(ctx, name, []byte("x"), nil, 0); err != nil {
			t.Fatalf("bind %v: %v", name, err)
		}
		perGroup[ring.RouteName(name)]++
	}
	if perGroup[0] == 0 || perGroup[1] == 0 {
		t.Fatalf("degenerate routing split %v; ring is not spreading prefixes", perGroup)
	}
	for g, n := range nodes {
		if got := n.Store().Len(); got != perGroup[g] {
			t.Fatalf("group %d holds %d entries, ring says %d", g, got, perGroup[g])
		}
	}
	// Root list merges both groups.
	list, err := r.List(ctx, nil)
	if err != nil || len(list) != 40 {
		t.Fatalf("root list: %d entries, err=%v", len(list), err)
	}
	// Reads route to the owner.
	for i := 0; i < 40; i++ {
		name := []string{fmt.Sprintf("svc%d", i)}
		v, err := r.Lookup(ctx, name)
		if err != nil || !v.Exists {
			t.Fatalf("lookup %v: %+v %v", name, v, err)
		}
	}
}

func TestNodeRejectsWrongShard(t *testing.T) {
	ctx := context.Background()
	r, nodes := twoShardWorld(t)
	ring := shard.Cached(2)
	// Find a prefix owned by group 1 and offer it to group 0 directly.
	var name []string
	for i := 0; ; i++ {
		name = []string{fmt.Sprintf("svc%d", i)}
		if ring.RouteName(name) == 1 {
			break
		}
	}
	c := dialNode(t, nodes[0])
	if err := c.Bind(ctx, name, []byte("x"), nil, 0); !refused(err, errWrongShard) {
		t.Fatalf("misrouted bind: err=%v, want wrong-shard", err)
	}
	if _, err := c.Lookup(ctx, name); !refused(err, errWrongShard) {
		t.Fatalf("misrouted lookup: err=%v, want wrong-shard", err)
	}
	// The router, by construction, never misroutes.
	if err := r.Bind(ctx, name, []byte("x"), nil, 0); err != nil {
		t.Fatalf("routed bind: %v", err)
	}
}

func TestRouterCrossGroupRename(t *testing.T) {
	ctx := context.Background()
	r, _ := twoShardWorld(t)
	ring := shard.Cached(2)
	// Pick a source owned by group 0 and a destination owned by group 1.
	var src, dst []string
	for i := 0; src == nil || dst == nil; i++ {
		n := []string{fmt.Sprintf("svc%d", i)}
		if src == nil && ring.RouteName(n) == 0 {
			src = n
		} else if dst == nil && ring.RouteName(n) == 1 {
			dst = n
		}
	}
	if err := r.Bind(ctx, src, []byte("payload"), map[string][]string{"k": {"v"}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Rename(ctx, src, dst); err != nil {
		t.Fatalf("cross-group rename: %v", err)
	}
	if v, _ := r.Lookup(ctx, src); v.Exists {
		t.Fatal("source still bound after rename")
	}
	v, err := r.Lookup(ctx, dst)
	if err != nil || !v.Exists || string(v.Obj) != "payload" || v.Attrs["k"][0] != "v" {
		t.Fatalf("destination after rename: %+v %v", v, err)
	}
}

// A cross-group rename whose subject is a context must be refused with
// the typed cross-shard error — not the generic not-a-context string —
// so callers can branch on the refusal (issue-9 satellite).
func TestRouterCrossShardContextRenameTyped(t *testing.T) {
	ctx := context.Background()
	r, _ := twoShardWorld(t)
	ring := shard.Cached(2)
	// Pick a source owned by group 0 and a destination owned by group 1.
	var src, dst []string
	for i := 0; src == nil || dst == nil; i++ {
		n := []string{fmt.Sprintf("sub%d", i)}
		if src == nil && ring.RouteName(n) == 0 {
			src = n
		} else if dst == nil && ring.RouteName(n) == 1 {
			dst = n
		}
	}
	if err := r.CreateCtx(ctx, src, nil); err != nil {
		t.Fatal(err)
	}
	err := r.Rename(ctx, src, dst)
	var csr *core.CrossShardRenameError
	if !errors.As(err, &csr) {
		t.Fatalf("cross-group context rename: err=%v, want cross-shard-rename", err)
	}
	if errors.Is(err, core.ErrNotContext) {
		t.Fatalf("refusal still reads as not-a-context: %v", err)
	}
	// The context must be untouched by the refusal.
	if v, lerr := r.Lookup(ctx, src); lerr != nil || !v.Exists || !v.IsCtx {
		t.Fatalf("source context after refusal: %+v %v", v, lerr)
	}
}

// A dead group must fail only its own batch items, typed per item; the
// other groups' items still succeed (the issue-8 partial-failure gate).
func TestRouterBatchPartialFailureTypedPerItem(t *testing.T) {
	ctx := context.Background()
	r, nodes := twoShardWorld(t)
	ring := shard.Cached(2)
	nodes[1].Close() // kill group 1

	var binds []BindManyOp
	for i := 0; i < 30; i++ {
		binds = append(binds, BindManyOp{Name: []string{fmt.Sprintf("svc%d", i)}, Obj: []byte("x")})
	}
	rsps, err := r.BindMany(ctx, binds)
	if err != nil {
		t.Fatalf("BindMany returned a call-level error %v; partial failure must be per item", err)
	}
	if len(rsps) != len(binds) {
		t.Fatalf("%d responses for %d items", len(rsps), len(binds))
	}
	for i, b := range binds {
		g := ring.RouteName(b.Name)
		switch {
		case g == 0 && rsps[i].Err != nil:
			t.Fatalf("item %d (live group): %v", i, rsps[i].Err)
		case g == 1 && rsps[i].Err == nil:
			t.Fatalf("item %d (dead group): no error", i)
		}
	}
}

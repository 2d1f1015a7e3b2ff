package hdns

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/filter"
	"gondi/internal/jgroups"
	"gondi/internal/rpc"
)

func apply(t *testing.T, s *Store, op *Op) []Change {
	t.Helper()
	ch, errStr := s.Apply(op)
	if errStr != "" {
		t.Fatalf("apply %v %v: %s", op.Kind, op.Name, errStr)
	}
	return ch
}

func TestStoreBindLookup(t *testing.T) {
	s := NewStore()
	apply(t, s, &Op{Kind: OpBind, Name: []string{"a"}, Obj: []byte("v"), Attrs: map[string][]string{"Type": {"x"}}})
	v := s.Lookup([]string{"a"})
	if !v.Exists || v.IsCtx || string(v.Obj) != "v" || v.Attrs["type"][0] != "x" {
		t.Fatalf("view = %+v", v)
	}
	// Atomic bind.
	if _, errStr := s.Apply(&Op{Kind: OpBind, Name: []string{"a"}}); errStr != errBound {
		t.Errorf("dup bind: %q", errStr)
	}
	// Rebind preserves attrs by default.
	apply(t, s, &Op{Kind: OpRebind, Name: []string{"a"}, Obj: []byte("w")})
	v = s.Lookup([]string{"a"})
	if string(v.Obj) != "w" || v.Attrs["type"][0] != "x" {
		t.Errorf("rebind: %+v", v)
	}
	// Rebind with ReplaceAttrs clears.
	apply(t, s, &Op{Kind: OpRebind, Name: []string{"a"}, Obj: []byte("z"), ReplaceAttrs: true})
	v = s.Lookup([]string{"a"})
	if len(v.Attrs) != 0 {
		t.Errorf("replace attrs: %+v", v)
	}
	// Missing lookup.
	if v := s.Lookup([]string{"ghost"}); v.Exists {
		t.Error("ghost exists")
	}
	// Root lookup.
	if v := s.Lookup(nil); !v.Exists || !v.IsCtx {
		t.Error("root lookup")
	}
}

func TestStoreContexts(t *testing.T) {
	s := NewStore()
	apply(t, s, &Op{Kind: OpCreateCtx, Name: []string{"dir"}})
	apply(t, s, &Op{Kind: OpBind, Name: []string{"dir", "x"}, Obj: []byte("1")})
	if _, errStr := s.Apply(&Op{Kind: OpDestroyCtx, Name: []string{"dir"}}); errStr != errCtxNotEmpty {
		t.Errorf("destroy non-empty: %q", errStr)
	}
	apply(t, s, &Op{Kind: OpUnbind, Name: []string{"dir", "x"}})
	apply(t, s, &Op{Kind: OpDestroyCtx, Name: []string{"dir"}})
	if v := s.Lookup([]string{"dir"}); v.Exists {
		t.Error("dir survived destroy")
	}
	// Intermediate non-context.
	apply(t, s, &Op{Kind: OpBind, Name: []string{"leaf"}})
	if _, errStr := s.Apply(&Op{Kind: OpBind, Name: []string{"leaf", "deep"}}); errStr != errNotCtx {
		t.Errorf("bind under leaf: %q", errStr)
	}
	// Unbind of absent succeeds; missing intermediate fails.
	if _, errStr := s.Apply(&Op{Kind: OpUnbind, Name: []string{"nope"}}); errStr != "" {
		t.Errorf("unbind absent: %q", errStr)
	}
	if _, errStr := s.Apply(&Op{Kind: OpUnbind, Name: []string{"no", "such"}}); errStr != errNotFound {
		t.Errorf("unbind deep absent: %q", errStr)
	}
}

func TestStoreRenameAndMods(t *testing.T) {
	s := NewStore()
	apply(t, s, &Op{Kind: OpBind, Name: []string{"a"}, Obj: []byte("v"), Attrs: map[string][]string{"k": {"1"}}})
	apply(t, s, &Op{Kind: OpRename, Name: []string{"a"}, Name2: []string{"b"}})
	if s.Lookup([]string{"a"}).Exists || !s.Lookup([]string{"b"}).Exists {
		t.Fatal("rename failed")
	}
	apply(t, s, &Op{Kind: OpModAttrs, Name: []string{"b"}, Mods: []ModRec{
		{Op: 0, ID: "new", Vals: []string{"x"}},
		{Op: 1, ID: "k", Vals: []string{"2"}},
	}})
	v := s.Lookup([]string{"b"})
	if v.Attrs["new"][0] != "x" || v.Attrs["k"][0] != "2" {
		t.Errorf("mods: %+v", v.Attrs)
	}
	apply(t, s, &Op{Kind: OpModAttrs, Name: []string{"b"}, Mods: []ModRec{{Op: 2, ID: "k"}}})
	if _, ok := s.Lookup([]string{"b"}).Attrs["k"]; ok {
		t.Error("remove failed")
	}
}

func TestStoreListAndSearch(t *testing.T) {
	s := NewStore()
	apply(t, s, &Op{Kind: OpCreateCtx, Name: []string{"c"}})
	for i := 0; i < 3; i++ {
		apply(t, s, &Op{Kind: OpBind, Name: []string{"c", fmt.Sprintf("n%d", i)},
			Obj: []byte{byte(i)}, Attrs: map[string][]string{"rank": {fmt.Sprint(i)}}})
	}
	list, errStr := s.List([]string{"c"})
	if errStr != "" || len(list) != 3 || list[0].Name != "n0" {
		t.Fatalf("list: %+v %q", list, errStr)
	}
	f := filter.MustParse("(rank>=1)")
	hits, errStr := s.Search(nil, f, 2, 0)
	if errStr != "" || len(hits) != 2 {
		t.Fatalf("search: %+v %q", hits, errStr)
	}
	// One-level from root misses nested entries.
	hits, _ = s.Search(nil, f, 1, 0)
	if len(hits) != 0 {
		t.Errorf("one-level: %+v", hits)
	}
	// Limit.
	hits, _ = s.Search(nil, filter.MustParse("(rank=*)"), 2, 2)
	if len(hits) != 2 {
		t.Errorf("limit: %d", len(hits))
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	apply(t, s, &Op{Kind: OpCreateCtx, Name: []string{"c"}})
	apply(t, s, &Op{Kind: OpBind, Name: []string{"c", "x"}, Obj: []byte("payload"),
		Attrs: map[string][]string{"a": {"1", "2"}}, LeaseMillis: 60000, Now: 1000})
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Restore(b); err != nil {
		t.Fatal(err)
	}
	v := s2.Lookup([]string{"c", "x"})
	if !v.Exists || string(v.Obj) != "payload" || !reflect.DeepEqual(v.Attrs["a"], []string{"1", "2"}) {
		t.Fatalf("restored = %+v", v)
	}
	// The restored lease (expiry 61000) is what the reaper's scan finds.
	if due := s2.ExpiredLeases(61000); len(due) != 0 {
		t.Errorf("due at its expiry: %v", due)
	}
	if due := s2.ExpiredLeases(61001); len(due) != 1 || !reflect.DeepEqual(due[0], []string{"c", "x"}) {
		t.Errorf("due after its expiry: %v, want [[c x]]", due)
	}
	if s2.Version() != s.Version() || s2.Len() != s.Len() {
		t.Error("metadata mismatch")
	}
	if err := s2.Restore([]byte("garbage")); err == nil {
		t.Error("garbage restore succeeded")
	}
}

// Property: two stores applying the same op sequence converge to identical
// snapshots (replica determinism — the invariant HDNS replication needs).
func TestStoreDeterminism(t *testing.T) {
	ops := []*Op{
		{Kind: OpCreateCtx, Name: []string{"a"}},
		{Kind: OpBind, Name: []string{"a", "x"}, Obj: []byte("1"), Attrs: map[string][]string{"k": {"v"}}},
		{Kind: OpBind, Name: []string{"a", "y"}, Obj: []byte("2")},
		{Kind: OpRebind, Name: []string{"a", "x"}, Obj: []byte("3")},
		{Kind: OpBind, Name: []string{"a", "x"}}, // fails on both
		{Kind: OpRename, Name: []string{"a", "y"}, Name2: []string{"a", "z"}},
		{Kind: OpModAttrs, Name: []string{"a", "x"}, Mods: []ModRec{{Op: 0, ID: "m", Vals: []string{"1"}}}},
		{Kind: OpUnbind, Name: []string{"a", "z"}},
	}
	s1, s2 := NewStore(), NewStore()
	for _, op := range ops {
		_, e1 := s1.Apply(op)
		_, e2 := s2.Apply(op)
		if e1 != e2 {
			t.Fatalf("divergent error for %v: %q vs %q", op.Kind, e1, e2)
		}
	}
	if !storesEqual(t, s1, s2, nil) {
		t.Fatal("replicas diverged")
	}
	if s1.Version() != s2.Version() {
		t.Fatal("version diverged")
	}
}

// storesEqual compares two stores semantically (gob snapshots encode maps
// in nondeterministic order, so byte comparison is too strict).
func storesEqual(t *testing.T, a, b *Store, path []string) bool {
	t.Helper()
	la, ea := a.List(path)
	lb, eb := b.List(path)
	if ea != eb || !reflect.DeepEqual(la, lb) {
		return false
	}
	for _, ent := range la {
		child := append(append([]string(nil), path...), ent.Name)
		va, vb := a.Lookup(child), b.Lookup(child)
		if !reflect.DeepEqual(va, vb) {
			return false
		}
		if ent.IsCtx && !storesEqual(t, a, b, child) {
			return false
		}
	}
	return true
}

// --- Node / replication tests ---

func testStack() jgroups.Config {
	c := jgroups.DefaultConfig()
	c.HeartbeatInterval = 40 * time.Millisecond
	c.SuspectAfter = 400 * time.Millisecond
	c.GossipInterval = 30 * time.Millisecond
	c.MergeInterval = 80 * time.Millisecond
	return c
}

func startTestNode(t *testing.T, f *jgroups.Fabric, name, group string, snapshotPath string) *Node {
	t.Helper()
	return startNode(t, f, name, group, snapshotPath, testStack())
}

func startNode(t *testing.T, f *jgroups.Fabric, name, group, snapshotPath string, stack jgroups.Config) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Group:            group,
		Transport:        f.Endpoint(jgroups.Address(name)),
		Stack:            stack,
		ListenAddr:       "127.0.0.1:0",
		SnapshotPath:     snapshotPath,
		SnapshotInterval: 200 * time.Millisecond,
		WriteTimeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatalf("node %s: %v", name, err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func dialNode(t *testing.T, n *Node) *Client {
	t.Helper()
	c, err := Dial(n.Addr(), "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(15 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestNodeSingleBasicOps(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n := startTestNode(t, f, "n1", "g1", "")
	c := dialNode(t, n)

	if err := c.Bind(ctx, []string{"svc"}, []byte("obj"), map[string][]string{"type": {"db"}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(ctx, []string{"svc"}, nil, nil, 0); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup bind: %v", err)
	}
	v, err := c.Lookup(ctx, []string{"svc"})
	if err != nil || !v.Exists || string(v.Obj) != "obj" {
		t.Fatalf("lookup: %+v %v", v, err)
	}
	if err := c.CreateCtx(ctx, []string{"dir"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(ctx, []string{"dir", "inner"}, []byte("x"), nil, 0); err != nil {
		t.Fatal(err)
	}
	list, err := c.List(ctx, nil)
	if err != nil || len(list) != 2 {
		t.Fatalf("list: %+v %v", list, err)
	}
	hits, err := c.Search(ctx, nil, "(type=db)", 2, 0)
	if err != nil || len(hits) != 1 || hits[0].Name[0] != "svc" {
		t.Fatalf("search: %+v %v", hits, err)
	}
	if err := c.Rename(ctx, []string{"svc"}, []string{"svc2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unbind(ctx, []string{"svc2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.ModAttrs(ctx, []string{"dir", "inner"}, []ModRec{{Op: 0, ID: "k", Vals: []string{"v"}}}); err != nil {
		t.Fatal(err)
	}
	v, _ = c.Lookup(ctx, []string{"dir", "inner"})
	if v.Attrs["k"][0] != "v" {
		t.Errorf("attrs: %+v", v.Attrs)
	}
	info, err := c.Info(ctx)
	if err != nil || !info.Coordinator || len(info.Members) != 1 {
		t.Errorf("info: %+v %v", info, err)
	}
}

// Writes through either node reach the other on the default (bimodal)
// stack. Two binds of one name racing through both nodes are
// TestContestedBindOneWinnerOnVirtualSynchrony's: bimodal multicast
// applies each node's own write before a peer's that raced it, so both
// binds can win here until writes enter through one node (ROADMAP 1).
func TestReplicationReadAnyWriteAll(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "n1", "g2", "")
	n2 := startTestNode(t, f, "n2", "g2", "")
	waitFor(t, 4*time.Second, "2-node group", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 2
	})
	c1 := dialNode(t, n1)
	c2 := dialNode(t, n2)
	// Write through node 1, read from node 2 (the §4.1 design point).
	if err := c1.Bind(ctx, []string{"replicated"}, []byte("data"), nil, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "replica convergence", func() bool {
		v, err := c2.Lookup(ctx, []string{"replicated"})
		return err == nil && v.Exists && string(v.Obj) == "data"
	})
	// Write through node 2, observe on node 1.
	if err := c2.Rebind(ctx, []string{"replicated"}, []byte("v2"), nil, false, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "reverse convergence", func() bool {
		v, err := c1.Lookup(ctx, []string{"replicated"})
		return err == nil && string(v.Obj) == "v2"
	})
}

// Atomic bind races: of two binds of one name entering through both
// nodes at once, exactly one wins, and both replicas keep the winner's
// object. Virtual synchrony applies the pair in one order everywhere.
func TestContestedBindOneWinnerOnVirtualSynchrony(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	stack := testStack()
	stack.Mode = jgroups.ModeVirtualSynchrony
	n1 := startNode(t, f, "n1", "g2", "", stack)
	n2 := startNode(t, f, "n2", "g2", "", stack)
	waitFor(t, 4*time.Second, "2-node group", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 2
	})
	clients := []*Client{dialNode(t, n1), dialNode(t, n2)}
	for round := 0; round < 20; round++ {
		name := []string{fmt.Sprintf("contested%d", round)}
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = c.Bind(ctx, name, []byte(fmt.Sprintf("n%d", i+1)), nil, 0)
			}()
		}
		wg.Wait()
		winner := -1
		for i, e := range errs {
			if e == nil {
				if winner >= 0 {
					t.Fatalf("round %d: both binds won", round)
				}
				winner = i
			} else if !errors.Is(e, core.ErrAlreadyBound) {
				t.Fatalf("round %d: unexpected bind error: %v", round, e)
			}
		}
		if winner < 0 {
			t.Fatalf("round %d: no bind won (%v / %v)", round, errs[0], errs[1])
		}
		want := fmt.Sprintf("n%d", winner+1)
		for _, c := range clients {
			waitFor(t, 3*time.Second, "winner replicated", func() bool {
				v, err := c.Lookup(ctx, name)
				return err == nil && string(v.Obj) == want
			})
		}
	}
}

func TestJoinerPullsState(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "n1", "g3", "")
	c1 := dialNode(t, n1)
	for i := 0; i < 5; i++ {
		if err := c1.Bind(ctx, []string{fmt.Sprintf("e%d", i)}, []byte("v"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	n2 := startTestNode(t, f, "n2", "g3", "")
	waitFor(t, 4*time.Second, "state transfer", func() bool {
		return n2.Store().Len() == 5
	})
}

func TestPersistenceAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	snap := filepath.Join(dir, "replica.snap")
	f := jgroups.NewFabric()
	n := startTestNode(t, f, "n1", "g4", snap)
	c := dialNode(t, n)
	if err := c.Bind(ctx, []string{"durable"}, []byte("gold"), nil, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Complete shutdown/restart (§4.1): a fresh node on the same
	// snapshot file recovers the data.
	n2 := startTestNode(t, f, "n1b", "g4", snap)
	c2 := dialNode(t, n2)
	v, err := c2.Lookup(ctx, []string{"durable"})
	if err != nil || !v.Exists || string(v.Obj) != "gold" {
		t.Fatalf("recovered = %+v, %v", v, err)
	}
}

func TestCrashedNodeRejoinsAndResyncs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "n1", "g5", "")
	n2 := startTestNode(t, f, "n2", "g5", filepath.Join(dir, "n2.snap"))
	waitFor(t, 4*time.Second, "group of 2", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 2
	})
	c1 := dialNode(t, n1)
	if err := c1.Bind(ctx, []string{"before"}, []byte("1"), nil, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "replicated", func() bool { return n2.Store().Len() == 1 })
	// Crash n2, write more, restart n2: it must catch up via state
	// transfer even though its snapshot is stale.
	n2.Close()
	waitFor(t, 4*time.Second, "view shrinks", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 1
	})
	if err := c1.Bind(ctx, []string{"during"}, []byte("2"), nil, 0); err != nil {
		t.Fatal(err)
	}
	n2b := startTestNode(t, f, "n2b", "g5", filepath.Join(dir, "n2.snap"))
	waitFor(t, 5*time.Second, "rejoin resync", func() bool {
		return n2b.Store().Len() == 2
	})
}

func TestPartitionPrimaryResync(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "n1", "g6", "")
	n2 := startTestNode(t, f, "n2", "g6", "")
	n3 := startTestNode(t, f, "n3", "g6", "")
	waitFor(t, 5*time.Second, "group of 3", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 3
	})
	c1 := dialNode(t, n1)
	c3 := dialNode(t, n3)
	if err := c1.Bind(ctx, []string{"shared"}, []byte("base"), nil, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "pre-partition sync", func() bool {
		return n3.Store().Len() == 1
	})
	// Partition {n1,n2} | {n3}; both sides keep writing.
	f.Partition([]jgroups.Address{"n1", "n2"}, []jgroups.Address{"n3"})
	waitFor(t, 5*time.Second, "split views", func() bool {
		v1, v3 := n1.Channel().View(), n3.Channel().View()
		return v1 != nil && len(v1.Members) == 2 && v3 != nil && len(v3.Members) == 1
	})
	if err := c1.Bind(ctx, []string{"majority-write"}, []byte("keep"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c3.Bind(ctx, []string{"minority-write"}, []byte("lose"), nil, 0); err != nil {
		t.Fatal(err)
	}
	// Heal: PRIMARY PARTITION keeps the majority's state; n3 resyncs.
	f.Heal()
	waitFor(t, 8*time.Second, "merged group", func() bool {
		for _, n := range []*Node{n1, n2, n3} {
			v := n.Channel().View()
			if v == nil || len(v.Members) != 3 {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "n3 resynced to primary state", func() bool {
		v := n3.Store().Lookup([]string{"majority-write"})
		lost := n3.Store().Lookup([]string{"minority-write"})
		return v.Exists && !lost.Exists
	})
	// Post-merge writes flow everywhere.
	if err := c3.Bind(ctx, []string{"after-merge"}, []byte("ok"), nil, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 4*time.Second, "post-merge replication", func() bool {
		return n1.Store().Lookup([]string{"after-merge"}).Exists
	})
}

func TestLeaseExpiry(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n := startTestNode(t, f, "n1", "g7", "")
	c := dialNode(t, n)
	if err := c.Bind(ctx, []string{"leased"}, []byte("x"), nil, 600); err != nil {
		t.Fatal(err)
	}
	// Renew keeps it alive past the original expiry.
	time.Sleep(300 * time.Millisecond)
	if _, err := c.RenewLease(ctx, []string{"leased"}, 600); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if v, _ := c.Lookup(ctx, []string{"leased"}); !v.Exists {
		t.Fatal("lease expired despite renewal")
	}
	// Stop renewing: the coordinator reaps it.
	waitFor(t, 4*time.Second, "lease reaped", func() bool {
		v, err := c.Lookup(ctx, []string{"leased"})
		return err == nil && !v.Exists
	})
}

func TestWatchEvents(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n := startTestNode(t, f, "n1", "g8", "")
	c := dialNode(t, n)
	var mu sync.Mutex
	var got []EventMsg
	cancel, err := c.Watch(ctx, nil, 2, func(e EventMsg) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(ctx, []string{"w"}, []byte("1"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind(ctx, []string{"w"}, []byte("2"), nil, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Unbind(ctx, []string{"w"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "3 events", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3
	})
	mu.Lock()
	if got[0].Kind != OpBind || got[1].Kind != OpRebind || got[2].Kind != OpUnbind {
		t.Errorf("events = %+v", got)
	}
	if string(got[1].Old) != "1" || string(got[1].Obj) != "2" {
		t.Errorf("rebind event = %+v", got[1])
	}
	mu.Unlock()
	cancel()
	if err := c.Bind(ctx, []string{"w2"}, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	if len(got) != 3 {
		t.Errorf("event after cancel: %d", len(got))
	}
	mu.Unlock()
}

func TestNodeAuth(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n, err := NewNode(NodeConfig{
		Group:      "g9",
		Transport:  f.Endpoint("n1"),
		Stack:      testStack(),
		ListenAddr: "127.0.0.1:0",
		Secret:     "s3cret",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Wrong secret: connection refused at auth.
	if _, err := Dial(n.Addr(), "wrong", time.Second); !errors.Is(err, core.ErrNoPermission) {
		t.Fatalf("bad secret: err=%v, want core.ErrNoPermission", err)
	}
	// No secret: reads work, writes denied.
	c, err := Dial(n.Addr(), "", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup(ctx, []string{"x"}); err != nil {
		t.Fatalf("anonymous read: %v", err)
	}
	if err := c.Bind(ctx, []string{"x"}, nil, nil, 0); !errors.Is(err, core.ErrNoPermission) {
		t.Fatalf("anonymous write: err=%v, want core.ErrNoPermission", err)
	}
	// Correct secret: writes work.
	c2, err := Dial(n.Addr(), "s3cret", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Bind(ctx, []string{"x"}, []byte("v"), nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWritesConverge(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "n1", "g10", "")
	n2 := startTestNode(t, f, "n2", "g10", "")
	waitFor(t, 4*time.Second, "group", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 2
	})
	c1 := dialNode(t, n1)
	c2 := dialNode(t, n2)
	var wg sync.WaitGroup
	const per = 25
	for i, c := range []*Client{c1, c2} {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				name := []string{fmt.Sprintf("w%d-%d", i, k)}
				if err := c.Bind(ctx, name, []byte("v"), nil, 0); err != nil {
					t.Errorf("bind %v: %v", name, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	waitFor(t, 6*time.Second, "convergence", func() bool {
		return n1.Store().Len() == 2*per && n2.Store().Len() == 2*per
	})
}

// A write the group could not replicate reaches the client typed: a
// send window that stayed full is busy with a retry hint, and a closed,
// unjoined or never-settling group, or a closed node, is unavailable.
func TestReplicationFailuresCrossTheWireTyped(t *testing.T) {
	f := jgroups.NewFabric()
	n := startTestNode(t, f, "rt-n1", "rt", "")
	closed := startTestNode(t, f, "rt-n2", "rt-closed", "")
	closed.Close()
	isBusy := func(err error) bool {
		var busy *core.ServerBusyError
		return errors.As(err, &busy) && busy.RetryAfter > 0
	}
	isUnavailable := func(err error) bool { return errors.As(err, new(*core.ServiceUnavailableError)) }
	cases := []struct {
		what string
		err  func() error
		is   func(error) bool
	}{
		{"window full", func() error { return n.replErr(jgroups.ErrSendWindowFull) }, isBusy},
		{"flush timeout", func() error { return n.replErr(jgroups.ErrFlushTimeout) }, isUnavailable},
		{"channel closed", func() error { return n.replErr(jgroups.ErrChanClosed) }, isUnavailable},
		{"not connected", func() error { return n.replErr(jgroups.ErrNotConnected) }, isUnavailable},
		{"node closed", func() error { return closed.submit(&Op{Kind: OpBind, Name: []string{"x"}}) }, isUnavailable},
	}
	c, err := rpc.Dial(n.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, tc := range cases {
		method := fmt.Sprintf("test.repl%d", i)
		n.srv.Handle(method, func(*rpc.ServerConn, []byte) ([]byte, error) {
			return nil, tc.err()
		})
		if _, err := c.Call(context.Background(), method, nil); !tc.is(err) {
			t.Errorf("%s crossed the wire as %v (%T)", tc.what, err, err)
		}
	}
}

package hdns

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/filter"
	"gondi/internal/jgroups"
	"gondi/internal/rpc"
	"gondi/internal/wire"
)

func apply(t testing.TB, s *Store, op *Op) []Change {
	t.Helper()
	ch, _, errStr := s.ApplyVersioned(op)
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
	if _, _, errStr := s.ApplyVersioned(&Op{Kind: OpBind, Name: []string{"a"}}); errStr != errBound {
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
	if _, _, errStr := s.ApplyVersioned(&Op{Kind: OpDestroyCtx, Name: []string{"dir"}}); errStr != errCtxNotEmpty {
		t.Errorf("destroy non-empty: %q", errStr)
	}
	apply(t, s, &Op{Kind: OpUnbind, Name: []string{"dir", "x"}})
	apply(t, s, &Op{Kind: OpDestroyCtx, Name: []string{"dir"}})
	if v := s.Lookup([]string{"dir"}); v.Exists {
		t.Error("dir survived destroy")
	}
	// Intermediate non-context.
	apply(t, s, &Op{Kind: OpBind, Name: []string{"leaf"}})
	if _, _, errStr := s.ApplyVersioned(&Op{Kind: OpBind, Name: []string{"leaf", "deep"}}); errStr != errNotCtx {
		t.Errorf("bind under leaf: %q", errStr)
	}
	// Unbind of absent succeeds; missing intermediate fails.
	if _, _, errStr := s.ApplyVersioned(&Op{Kind: OpUnbind, Name: []string{"nope"}}); errStr != "" {
		t.Errorf("unbind absent: %q", errStr)
	}
	if _, _, errStr := s.ApplyVersioned(&Op{Kind: OpUnbind, Name: []string{"no", "such"}}); errStr != errNotFound {
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
	ver, b := s.SnapshotVersioned()
	if ver != s.Version() {
		t.Fatalf("snapshot at version %d (store at %d)", ver, s.Version())
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
	// An op that fails fails the whole snapshot, and the store keeps its
	// tree.
	bad := binary.AppendUvarint(append([]byte{snapV1}, 9), 1)
	bad = wire.PrefixBytes(appendOp(bad, &Op{Kind: OpBind, Name: []string{"missing", "x"}}), len(bad))
	if err := s2.Restore(bad); err == nil || s2.Version() != s.Version() || !s2.Lookup([]string{"c", "x"}).Exists {
		t.Errorf("restore of a failing op: err %v, version %d", err, s2.Version())
	}
	// The whole tree survives, lease expiries and root attributes too.
	tree := storeOf(t, sampleTree())
	_, b = tree.SnapshotVersioned()
	if err := s2.Restore(b); err != nil || s2.Version() != tree.Version() || !reflect.DeepEqual(s2.root, tree.root) {
		t.Fatalf("sample tree round trip: err %v, version %d of %d", err, s2.Version(), tree.Version())
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
		_, _, e1 := s1.ApplyVersioned(op)
		_, _, e2 := s2.ApplyVersioned(op)
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
	_, b1 := s1.SnapshotVersioned()
	_, b2 := s2.SnapshotVersioned()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshots differ:\n%x\n%x", b1, b2)
	}
}

// storesEqual compares two stores through the read API, entry by entry:
// what a client can see. Lease expiries and root attributes are not
// read; TestStoreSnapshotRoundTrip compares whole trees.
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

// testStacks are testStack on both protocol suites, bimodal first.
func testStacks() []jgroups.Config {
	vs := testStack()
	vs.Mode = jgroups.ModeVirtualSynchrony
	return []jgroups.Config{testStack(), vs}
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

	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"svc"}, Obj: []byte("obj"), Attrs: map[string][]string{"type": {"db"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"svc"}}); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup bind: %v", err)
	}
	v, err := c.Lookup(ctx, []string{"svc"})
	if err != nil || !v.Exists || string(v.Obj) != "obj" {
		t.Fatalf("lookup: %+v %v", v, err)
	}
	if _, err := c.Do(ctx, &Op{Kind: OpCreateCtx, Name: []string{"dir"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"dir", "inner"}, Obj: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	list, err := c.Do(ctx, &Op{Kind: OpList})
	if err != nil || len(list.List) != 2 {
		t.Fatalf("list: %+v %v", list, err)
	}
	hits, err := c.Do(ctx, &Op{Kind: OpSearch, Filter: "(type=db)", Scope: 2})
	if err != nil || len(hits.Hits) != 1 || hits.Hits[0].Name[0] != "svc" {
		t.Fatalf("search: %+v %v", hits, err)
	}
	if _, err := c.Do(ctx, &Op{Kind: OpRename, Name: []string{"svc"}, Name2: []string{"svc2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, &Op{Kind: OpUnbind, Name: []string{"svc2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, &Op{Kind: OpModAttrs, Name: []string{"dir", "inner"}, Mods: []ModRec{{Op: 0, ID: "k", Vals: []string{"v"}}}}); err != nil {
		t.Fatal(err)
	}
	v, _ = c.Lookup(ctx, []string{"dir", "inner"})
	if v.Attrs["k"][0] != "v" {
		t.Errorf("attrs: %+v", v.Attrs)
	}
}

// The method a request arrives on names its kind, and the client takes
// the method from the kind by the same table. A body's kind never
// overrides its method; OpExpire has no method, so Do refuses it typed
// and sends nothing; and every other kind reaches a handler.
func TestMethodNamesTheKind(t *testing.T) {
	ctx := context.Background()
	n := startTestNode(t, jgroups.NewFabric(), "n1", "gkind", "")
	rc, err := rpc.Dial(n.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for _, kind := range []OpKind{OpUnbind, OpExpire} {
		name := []string{"sent-as-" + kind.String()}
		body := appendReq(nil, &Op{Kind: kind, Name: name, Obj: []byte("v")})
		if _, err := rc.Call(ctx, "hdns.bind", body); err != nil {
			t.Fatalf("hdns.bind with body kind %v: %v", kind, err)
		}
		if v := n.Store().Lookup(name); !v.Exists || string(v.Obj) != "v" {
			t.Errorf("hdns.bind with body kind %v was not applied as a bind: %+v", kind, v)
		}
	}

	// A client over a connection that nothing serves: whatever Do sends
	// arrives here.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	quiet, err := rpc.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	qc := &Client{rc: quiet, handlers: map[uint64]func(EventMsg){}}
	expire := Op{Kind: OpExpire, Name: []string{"x"}}
	if _, err := qc.Do(ctx, &expire); !errors.As(err, new(*NoMethodError)) || !errors.Is(err, core.ErrNotSupported) {
		t.Errorf("Do(OpExpire) = %v, want a *NoMethodError", err)
	}
	if _, err := qc.DoMany(ctx, []Op{{Kind: OpLookup, Name: []string{"x"}}, expire}); !errors.As(err, new(*NoMethodError)) {
		t.Errorf("DoMany with an OpExpire item = %v, want a *NoMethodError", err)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if k, _ := conn.Read(make([]byte, 1)); k != 0 {
		t.Error("a refused op put bytes on the wire")
	}

	c := dialNode(t, n)
	for k, m := range methods {
		if m.name == "" {
			continue
		}
		kind := OpKind(k)
		_, err := c.Do(ctx, &Op{Kind: kind, Name: []string{"probe"}})
		if errors.As(err, new(*NoMethodError)) || err != nil && strings.Contains(err.Error(), "unknown method") {
			t.Errorf("%v reached no handler: %v", kind, err)
		}
	}
}

// Writes through either node reach the other on the default (bimodal)
// stack. Two binds of one name racing through both nodes are
// TestContestedBindOneWinner's.
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
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"replicated"}, Obj: []byte("data")}); err != nil {
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
// object. The coordinator sequences both nodes' writes into one order,
// on either stack.
func TestContestedBindOneWinner(t *testing.T) {
	ctx := context.Background()
	for _, stack := range testStacks() {
		t.Run(stack.Mode.String(), func(t *testing.T) {
			f := jgroups.NewFabric()
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
						_, errs[i] = c.Do(ctx, &Op{Kind: OpBind, Name: name, Obj: []byte(fmt.Sprintf("n%d", i+1))})
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
		})
	}
}

// A coordinator crash leaves the group writable: the node that takes
// over continues the sequence from what the survivors delivered, so a
// write entering through it applies at once.
func TestWriteThroughNewCoordinator(t *testing.T) {
	ctx := context.Background()
	for _, stack := range testStacks() {
		t.Run(stack.Mode.String(), func(t *testing.T) {
			f := jgroups.NewFabric()
			n1 := startNode(t, f, "n1", "wnc", "", stack)
			n2 := startNode(t, f, "n2", "wnc", "", stack)
			n3 := startNode(t, f, "n3", "wnc", "", stack)
			waitFor(t, 4*time.Second, "3-node group", func() bool {
				v := n3.Channel().View()
				return v != nil && len(v.Members) == 3
			})
			c1 := dialNode(t, n1)
			for i := 0; i < 5; i++ {
				if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{fmt.Sprintf("e%d", i)}, Obj: []byte("v")}); err != nil {
					t.Fatal(err)
				}
			}
			n1.Kill()
			waitFor(t, 5*time.Second, "n2 coordinates", func() bool {
				v2, v3 := n2.Channel().View(), n3.Channel().View()
				return v2 != nil && v3 != nil && len(v2.Members) == 2 && len(v3.Members) == 2 &&
					v2.Coord() == "n2" && v3.Coord() == "n2"
			})
			c2 := dialNode(t, n2)
			bctx, cancel := context.WithTimeout(ctx, time.Second)
			defer cancel()
			start := time.Now()
			if _, err := c2.Do(bctx, &Op{Kind: OpBind, Name: []string{"after"}, Obj: []byte("v")}); err != nil {
				t.Fatalf("bind through the new coordinator: %v after %v", err, time.Since(start))
			}
			waitFor(t, 3*time.Second, "the write on the other survivor", func() bool {
				return n3.Store().Lookup([]string{"after"}).Exists
			})
		})
	}
}

// A joiner adopts the coordinator's position in the sequence on both
// stacks: the state transfer carries the history, and no repair replays
// it on top, so one write after the join leaves both replicas at one
// version.
func TestJoinerDoesNotReplayHistory(t *testing.T) {
	ctx := context.Background()
	for _, stack := range testStacks() {
		t.Run(stack.Mode.String(), func(t *testing.T) {
			f := jgroups.NewFabric()
			n1 := startNode(t, f, "n1", "replay", "", stack)
			c1 := dialNode(t, n1)
			for i := 0; i < 42; i++ {
				if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{fmt.Sprintf("pre%d", i)}, Obj: []byte("v")}); err != nil {
					t.Fatal(err)
				}
			}
			n2 := startNode(t, f, "n2", "replay", "", stack)
			waitFor(t, 4*time.Second, "2-node group", func() bool {
				v := n1.Channel().View()
				return v != nil && len(v.Members) == 2
			})
			if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"post"}, Obj: []byte("v")}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 4*time.Second, "the joiner applies the write", func() bool {
				return n2.Store().Lookup([]string{"post"}).Exists
			})
			if v1, v2 := n1.Store().Version(), n2.Store().Version(); v1 != v2 {
				t.Fatalf("joiner at version %d, coordinator at %d", v2, v1)
			}
		})
	}
}

func TestJoinerPullsState(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "n1", "g3", "")
	c1 := dialNode(t, n1)
	for i := 0; i < 5; i++ {
		if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{fmt.Sprintf("e%d", i)}, Obj: []byte("v")}); err != nil {
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
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"durable"}, Obj: []byte("gold")}); err != nil {
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
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"before"}, Obj: []byte("1")}); err != nil {
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
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"during"}, Obj: []byte("2")}); err != nil {
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
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"shared"}, Obj: []byte("base")}); err != nil {
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
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"majority-write"}, Obj: []byte("keep")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Do(ctx, &Op{Kind: OpBind, Name: []string{"minority-write"}, Obj: []byte("lose")}); err != nil {
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
	if _, err := c3.Do(ctx, &Op{Kind: OpBind, Name: []string{"after-merge"}, Obj: []byte("ok")}); err != nil {
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
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"leased"}, Obj: []byte("x"), LeaseMillis: 600}); err != nil {
		t.Fatal(err)
	}
	// Renew keeps it alive past the original expiry.
	time.Sleep(300 * time.Millisecond)
	if _, err := c.Do(ctx, &Op{Kind: OpLeaseRenew, Name: []string{"leased"}, LeaseMillis: 600}); err != nil {
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
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"w"}, Obj: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind(ctx, []string{"w"}, []byte("2"), nil, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, &Op{Kind: OpUnbind, Name: []string{"w"}}); err != nil {
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
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"w2"}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	if len(got) != 3 {
		t.Errorf("event after cancel: %d", len(got))
	}
	mu.Unlock()
}

// An event push the client cannot decode ends its connection, as a
// malformed rpc frame does, so a watch over that connection is lost
// visibly (core.WatchLoss on Done, as hdnssp registers it) instead of
// going quiet while it stays registered.
func TestUndecodableEventLosesWatch(t *testing.T) {
	ctx := context.Background()
	n := startTestNode(t, jgroups.NewFabric(), "n1", "g-undecodable", "")
	c := dialNode(t, n)
	unwatch, err := c.Watch(ctx, nil, 2, func(EventMsg) {})
	if err != nil {
		t.Fatal(err)
	}
	lost := make(chan struct{}, 1)
	cancel, _ := core.WatchLoss(c.Done(), func(ev core.NamingEvent) {
		if ev.Type == core.EventWatchLost {
			lost <- struct{}{}
		}
	}, func() {}, unwatch)
	defer cancel()

	var conn *rpc.ServerConn
	var id uint64
	n.mu.Lock()
	for sc, ws := range n.watches {
		for wid := range ws {
			conn, id = sc, wid
		}
	}
	n.mu.Unlock()
	if conn == nil {
		t.Fatal("the node holds no watch")
	}
	body := appendEvent(nil, &EventMsg{WatchID: id, Kind: OpBind, Name: []string{"x"}})
	if err := conn.Push(mEvent, append(body, 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-lost:
	case <-time.After(time.Second):
		t.Fatal("an undecodable event did not lose the watch within 1s")
	}
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
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"x"}}); !errors.Is(err, core.ErrNoPermission) {
		t.Fatalf("anonymous write: err=%v, want core.ErrNoPermission", err)
	}
	// Correct secret: writes work.
	c2, err := Dial(n.Addr(), "s3cret", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Do(ctx, &Op{Kind: OpBind, Name: []string{"x"}, Obj: []byte("v")}); err != nil {
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
				if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: name, Obj: []byte("v")}); err != nil {
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

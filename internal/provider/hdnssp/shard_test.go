package hdnssp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/shard"
)

// newShardedWorld starts one node per shard and returns the "|"-joined
// authority a client routes across.
func newShardedWorld(t *testing.T, groups int) (string, []*hdns.Node) {
	t.Helper()
	f := jgroups.NewFabric()
	stack := jgroups.DefaultConfig()
	stack.HeartbeatInterval = 40 * time.Millisecond
	nodes := make([]*hdns.Node, groups)
	auths := make([]string, groups)
	for i := range nodes {
		n, err := hdns.NewNode(hdns.NodeConfig{
			Group:      fmt.Sprintf("shtest-%d", i),
			Transport:  f.Endpoint(jgroups.Address(fmt.Sprintf("s%d", i))),
			Stack:      stack,
			ListenAddr: "127.0.0.1:0",
			Shard:      shard.Assignment{Groups: groups, Index: i},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
		auths[i] = n.Addr()
	}
	return shard.JoinAuthority(auths), nodes
}

// A sharded authority must behave exactly like a single node through
// the provider: the shard split is invisible above the Conn interface.
func TestShardedProviderTransparent(t *testing.T) {
	ctx := context.Background()
	authority, nodes := newShardedWorld(t, 2)
	c, err := Open(ctx, authority, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, ok := c.Client().(*hdns.Router); !ok {
		t.Fatalf("client is %T, want *hdns.Router", c.Client())
	}

	for i := 0; i < 20; i++ {
		if err := c.Bind(ctx, fmt.Sprintf("svc%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
	}
	// Both shards actually hold entries (the ring spread the prefixes).
	if nodes[0].Store().Len() == 0 || nodes[1].Store().Len() == 0 {
		t.Fatalf("degenerate split: %d/%d", nodes[0].Store().Len(), nodes[1].Store().Len())
	}
	for i := 0; i < 20; i++ {
		got, err := c.Lookup(ctx, fmt.Sprintf("svc%d", i))
		if err != nil || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("lookup %d = %v, %v", i, got, err)
		}
	}
	// Root list merges all shards.
	pairs, err := c.List(ctx, "")
	if err != nil || len(pairs) != 20 {
		t.Fatalf("root list: %d pairs, %v", len(pairs), err)
	}
}

// The sharded URL form routes through core.OpenURL like any other
// authority; "|" must survive URL parsing.
func TestShardedURLThroughProvider(t *testing.T) {
	ctx := context.Background()
	authority, _ := newShardedWorld(t, 2)
	Register()
	nc, rest, err := core.OpenURL(ctx, "hdns://"+authority+"/x/y", nil)
	if err != nil {
		t.Fatalf("OpenURL: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	if rest.String() != "x/y" {
		t.Fatalf("remaining name %q, want x/y", rest.String())
	}
}

// The router's cross-shard context-rename refusal must surface as the
// typed *core.CrossShardRenameError so federation callers can branch on
// it instead of pattern-matching a wire string.
func TestCrossShardRenameTypedError(t *testing.T) {
	ctx := context.Background()
	authority, _ := newShardedWorld(t, 2)
	c, err := Open(ctx, authority, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ring := shard.Cached(2)
	var src, dst string
	for i := 0; src == "" || dst == ""; i++ {
		n := fmt.Sprintf("dept%d", i)
		if src == "" && ring.RouteName([]string{n}) == 0 {
			src = n
		} else if dst == "" && ring.RouteName([]string{n}) == 1 {
			dst = n
		}
	}
	if _, err := c.CreateSubcontext(ctx, src); err != nil {
		t.Fatal(err)
	}
	err = c.Rename(ctx, src, dst)
	var csr *core.CrossShardRenameError
	if !errors.As(err, &csr) {
		t.Fatalf("rename err = %v (%T), want *core.CrossShardRenameError", err, err)
	}
	if csr.OldName != src || csr.NewName != dst {
		t.Fatalf("typed error names %q -> %q, want %q -> %q", csr.OldName, csr.NewName, src, dst)
	}
	// Leaf renames across groups stay supported (emulated move).
	if err := c.Bind(ctx, src+"/leaf", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(ctx, src+"/leaf", src+"/leaf2"); err != nil {
		t.Fatalf("same-subtree leaf rename: %v", err)
	}
}

// BatchContext ops through a sharded provider keep per-item semantics
// when items land on different groups.
func TestShardedBatchContext(t *testing.T) {
	ctx := context.Background()
	authority, _ := newShardedWorld(t, 2)
	c, err := Open(ctx, authority, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var names []string
	var binds []core.BindRequest
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("b%d", i)
		names = append(names, name)
		binds = append(binds, core.BindRequest{Name: name, Obj: name + "-obj"})
	}
	bres, err := c.BindMany(ctx, binds)
	if err != nil {
		t.Fatalf("BindMany: %v", err)
	}
	for i, r := range bres {
		if r.Err != nil {
			t.Fatalf("bind item %d: %v", i, r.Err)
		}
	}
	lres, err := c.LookupMany(ctx, names)
	if err != nil {
		t.Fatalf("LookupMany: %v", err)
	}
	for i, r := range lres {
		if r.Err != nil {
			t.Fatalf("lookup item %d: %v", i, r.Err)
		}
		if r.Value != names[i]+"-obj" {
			t.Fatalf("lookup item %d = %v", i, r.Value)
		}
	}
}

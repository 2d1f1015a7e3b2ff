package hdnssp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
)

func newNode(t *testing.T, group string) *hdns.Node {
	t.Helper()
	f := jgroups.NewFabric()
	stack := jgroups.DefaultConfig()
	stack.HeartbeatInterval = 40 * time.Millisecond
	n, err := hdns.NewNode(hdns.NodeConfig{
		Group:      group,
		Transport:  f.Endpoint("n1"),
		Stack:      stack,
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func openCtx(t *testing.T, n *hdns.Node, env map[string]any) *Context {
	ctx := context.Background()
	t.Helper()
	if env == nil {
		env = map[string]any{}
	}
	c, err := Open(ctx, n.Addr(), env)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicOps(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, "p1")
	c := openCtx(t, n, nil)
	if err := c.Bind(ctx, "svc", "value"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "svc")
	if err != nil || got != "value" {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	// Atomic bind — native in HDNS (§5.2), no locking required.
	if err := c.Bind(ctx, "svc", "x"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup bind: %v", err)
	}
	if err := c.Rebind(ctx, "svc", 42); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Lookup(ctx, "svc"); got != 42 {
		t.Errorf("rebind = %v", got)
	}
	if err := c.Unbind(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "svc"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("after unbind: %v", err)
	}
}

func TestSubcontextsAndComposite(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, "p2")
	c := openCtx(t, n, nil)
	sub, err := c.CreateSubcontext(ctx, "emory")
	if err != nil {
		t.Fatal(err)
	}
	deeper, err := sub.(*Context).CreateSubcontext(ctx, "mathcs")
	if err != nil {
		t.Fatal(err)
	}
	must(t, deeper.Bind(ctx, "mokey", "the-object"))
	got, err := c.Lookup(ctx, "emory/mathcs/mokey")
	if err != nil || got != "the-object" {
		t.Fatalf("composite = %v, %v", got, err)
	}
	pairs, err := c.List(ctx, "emory")
	if err != nil || len(pairs) != 1 || pairs[0].Name != "mathcs" || pairs[0].Class != core.ContextReferenceClass {
		t.Fatalf("list = %+v, %v", pairs, err)
	}
	bindings, err := c.ListBindings(ctx, "emory/mathcs")
	if err != nil || len(bindings) != 1 || bindings[0].Object != "the-object" {
		t.Fatalf("bindings = %+v, %v", bindings, err)
	}
	if err := c.DestroySubcontext(ctx, "emory"); !errors.Is(err, core.ErrContextNotEmpty) {
		t.Errorf("destroy non-empty: %v", err)
	}
	// Rename within the tree.
	must(t, c.Rename(ctx, "emory/mathcs/mokey", "emory/mokey2"))
	if got, _ := c.Lookup(ctx, "emory/mokey2"); got != "the-object" {
		t.Errorf("renamed = %v", got)
	}
}

func TestAttributesAndSearch(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, "p3")
	c := openCtx(t, n, nil)
	must(t, c.BindAttrs(ctx, "r1", "o1", core.NewAttributes("type", "storage", "size", "100")))
	must(t, c.BindAttrs(ctx, "r2", "o2", core.NewAttributes("type", "storage", "size", "500")))
	must(t, c.BindAttrs(ctx, "r3", "o3", core.NewAttributes("type", "compute")))

	attrs, err := c.GetAttributes(ctx, "r1")
	if err != nil || attrs.GetFirst("size") != "100" {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	res, err := c.Search(ctx, "", "(&(type=storage)(size>=200))", &core.SearchControls{Scope: core.ScopeSubtree, ReturnObject: true})
	if err != nil || len(res) != 1 || res[0].Name != "r2" || res[0].Object != "o2" {
		t.Fatalf("search = %+v, %v", res, err)
	}
	must(t, c.ModifyAttributes(ctx, "r3", []core.AttributeMod{
		{Op: core.ModAdd, Attr: core.Attribute{ID: "gpu", Values: []string{"a100"}}},
	}))
	attrs, _ = c.GetAttributes(ctx, "r3", "gpu")
	if attrs.GetFirst("gpu") != "a100" {
		t.Errorf("modify: %v", attrs)
	}
	// Rebind preserves attrs when nil.
	must(t, c.Rebind(ctx, "r1", "o1b"))
	attrs, _ = c.GetAttributes(ctx, "r1")
	if attrs.GetFirst("size") != "100" {
		t.Errorf("rebind dropped attrs: %v", attrs)
	}
	// RebindAttrs with empty set clears.
	must(t, c.RebindAttrs(ctx, "r1", "o1c", &core.Attributes{}))
	attrs, _ = c.GetAttributes(ctx, "r1")
	if attrs.Size() != 0 {
		t.Errorf("attrs not cleared: %v", attrs)
	}
}

func TestWatch(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, "p4")
	c := openCtx(t, n, nil)
	var mu sync.Mutex
	var got []core.NamingEvent
	cancel, err := c.Watch(ctx, "", core.ScopeSubtree, func(e core.NamingEvent) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	must(t, c.Bind(ctx, "a", 1))
	must(t, c.Rebind(ctx, "a", 2))
	must(t, c.Unbind(ctx, "a"))
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		done := len(got) >= 3
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("events missing")
		}
		time.Sleep(15 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Type != core.EventObjectAdded || got[1].Type != core.EventObjectChanged || got[2].Type != core.EventObjectRemoved {
		t.Errorf("events = %+v", got)
	}
	if got[1].NewValue != 2 || got[1].OldValue != 1 {
		t.Errorf("changed = %+v", got[1])
	}
}

// The lease is read as any integer environment value is: an int or a
// decimal string both grant it.
func TestLeases(t *testing.T) {
	for name, lease := range map[string]any{"int": 400, "string": "400"} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			n := newNode(t, "p5"+name)
			c := openCtx(t, n, map[string]any{EnvLeaseMs: lease})
			must(t, c.Bind(ctx, "leased", "v"))
			// Renewal keeps it alive.
			time.Sleep(900 * time.Millisecond)
			if _, err := c.Lookup(ctx, "leased"); err != nil {
				t.Fatalf("lease lapsed despite renewal: %v", err)
			}
			// Close stops renewals; reaper collects.
			observer := openCtx(t, n, nil)
			must(t, c.Close())
			waitNotFound(t, observer, "leased")
		})
	}
}

func waitNotFound(t *testing.T, c *Context, name string) {
	t.Helper()
	deadline := time.Now().Add(6 * time.Second)
	for {
		_, err := c.Lookup(context.Background(), name)
		if errors.Is(err, core.ErrNotFound) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reaped (last lookup: %v)", name, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// One renewal shed busy must not end renewal for good: the write class
// refills one token per 600 ms, so every renewal due at lease/2 (500 ms)
// after the previous write is shed and succeeds on a retry well inside
// the 1 s lease.
func TestLeaseRenewalRetriesBusyShed(t *testing.T) {
	ctx := context.Background()
	n, err := hdns.NewNode(hdns.NodeConfig{
		Group:      "renew-busy",
		Transport:  jgroups.NewFabric().Endpoint("n1"),
		Stack:      jgroups.DefaultConfig(),
		ListenAddr: "127.0.0.1:0",
		Admission: admission.NewController(admission.NewOptions(
			admission.WithServer("renew-busy"), admission.WithRate(admission.Write, 1/0.6, 1))),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	c := openCtx(t, n, map[string]any{EnvLeaseMs: 1000, core.EnvPoolID: t.Name()})
	must(t, c.Bind(ctx, "leased", "v"))
	time.Sleep(3 * time.Second)
	if _, err := c.Lookup(ctx, "leased"); err != nil {
		t.Fatalf("binding lost after a shed renewal: %v", err)
	}
}

// Closing one root context twice releases one reference, not two: the
// other holder of the pooled connection keeps working.
func TestDoubleCloseKeepsSharedConnection(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, "double-close")
	env := map[string]any{core.EnvPoolID: t.Name()}
	a := openCtx(t, n, env)
	b := openCtx(t, n, env)
	must(t, b.Bind(ctx, "x", "v"))
	must(t, a.Close())
	must(t, a.Close())
	if got, err := b.Lookup(ctx, "x"); err != nil || got != "v" {
		t.Fatalf("other holder after a double close: %v, %v", got, err)
	}
}

// The last holder of a dead connection closing it must not evict the live
// connection that replaced it.
func TestDeadEntryDoesNotEvictReplacement(t *testing.T) {
	n := newNode(t, "stale")
	env := map[string]any{core.EnvPoolID: t.Name()}
	a := openCtx(t, n, env)
	a.sh.client.Close()
	b := openCtx(t, n, env)
	if b.sh == a.sh {
		t.Fatal("a dead connection was handed out again")
	}
	must(t, a.Close())
	c := openCtx(t, n, env)
	if c.sh != b.sh {
		t.Fatal("the dead entry's last close evicted its replacement: a second connection was dialled")
	}
}

// A warm open is what every new root pays: each InitialContext and cache
// on an authority already dialled, and each re-open of a dead root.
func TestPooledOpenAllocs(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, "open-allocs")
	env := map[string]any{core.EnvPoolID: "open-allocs"}
	openCtx(t, n, env) // keeps the connection warm
	allocs := testing.AllocsPerRun(200, func() {
		c, err := Open(ctx, n.Addr(), env)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
	if allocs > 6 {
		t.Fatalf("warm Open+Close allocates %.1f per op, want <= 6", allocs)
	}
	t.Logf("warm Open+Close: %.1f allocs", allocs)
}

func TestFederationBoundary(t *testing.T) {
	ctx := context.Background()
	n := newNode(t, "p6")
	c := openCtx(t, n, nil)
	must(t, c.Bind(ctx, "gateway", core.NewContextReference("jini://somewhere:4160")))
	_, err := c.Lookup(ctx, "gateway/deep/name")
	var cpe *core.CannotProceedError
	if !errors.As(err, &cpe) {
		t.Fatalf("want continuation, got %v", err)
	}
	if cpe.RemainingName.String() != "deep/name" {
		t.Errorf("remaining = %q", cpe.RemainingName.String())
	}
}

func TestProviderRegistration(t *testing.T) {
	ctx := context.Background()
	Register()
	n := newNode(t, "p7")
	nc, rest, err := core.OpenURL(ctx, "hdns://"+n.Addr()+"/x/y", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if rest.String() != "x/y" {
		t.Errorf("rest = %q", rest.String())
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

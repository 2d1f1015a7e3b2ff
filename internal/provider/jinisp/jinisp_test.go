package jinisp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/jini"
	"gondi/internal/obs"
)

func newLUS(t *testing.T) *jini.LUS {
	t.Helper()
	l, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func openCtx(t *testing.T, l *jini.LUS, env map[string]any) *Context {
	ctx := context.Background()
	t.Helper()
	if env == nil {
		env = map[string]any{}
	}
	c, err := Open(ctx, l.Addr(), env)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBindLookupUnbind(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, nil)
	if err := c.Bind(ctx, "printer", "10.0.0.1:631"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "printer")
	if err != nil || got != "10.0.0.1:631" {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	// Atomic bind fails on duplicate.
	if err := c.Bind(ctx, "printer", "other"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup bind: %v", err)
	}
	// Rebind overwrites.
	if err := c.Rebind(ctx, "printer", "10.0.0.2:631"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Lookup(ctx, "printer"); got != "10.0.0.2:631" {
		t.Errorf("after rebind: %v", got)
	}
	if err := c.Unbind(ctx, "printer"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "printer"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("after unbind: %v", err)
	}
	// Unbind of absent name succeeds.
	if err := c.Unbind(ctx, "ghost"); err != nil {
		t.Errorf("unbind ghost: %v", err)
	}
}

func TestRelaxedSemantics(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, map[string]any{EnvBind: "relaxed"})
	if err := c.Bind(ctx, "x", 1); err != nil {
		t.Fatal(err)
	}
	// Relaxed bind still detects existing bindings (check-then-set,
	// just not atomically).
	if err := c.Bind(ctx, "x", 2); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("relaxed dup: %v", err)
	}
}

// Strict bind under concurrency: exactly one winner even with racing
// writers sharing a lock table.
func TestStrictBindAtomicity(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	const writers = 4
	var wg sync.WaitGroup
	wins := make(chan int, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			c, err := Open(ctx, l.Addr(), map[string]any{
				EnvBind: "strict", EnvLockSlots: writers, EnvLockSlot: slot,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Bind(ctx, "contested", fmt.Sprintf("writer-%d", slot)); err == nil {
				wins <- slot
			} else if !errors.Is(err, core.ErrAlreadyBound) {
				t.Errorf("writer %d: %v", slot, err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("strict bind produced %d winners", n)
	}
}

func TestAttributesAndSearch(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, nil)
	must(t, c.BindAttrs(ctx, "node1", "10.0.0.1", core.NewAttributes("type", "compute", "cpus", "8")))
	must(t, c.BindAttrs(ctx, "node2", "10.0.0.2", core.NewAttributes("type", "compute", "cpus", "16")))
	must(t, c.BindAttrs(ctx, "gw", "10.0.0.254", core.NewAttributes("type", "gateway")))

	attrs, err := c.GetAttributes(ctx, "node1")
	if err != nil || attrs.GetFirst("cpus") != "8" {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	res, err := c.Search(ctx, "", "(&(type=compute)(cpus>=16))", &core.SearchControls{Scope: core.ScopeSubtree, ReturnObject: true})
	if err != nil || len(res) != 1 || res[0].Name != "node2" || res[0].Object != "10.0.0.2" {
		t.Fatalf("search = %+v, %v", res, err)
	}
	// ModifyAttributes.
	must(t, c.ModifyAttributes(ctx, "node1", []core.AttributeMod{
		{Op: core.ModReplace, Attr: core.Attribute{ID: "cpus", Values: []string{"32"}}},
	}))
	attrs, _ = c.GetAttributes(ctx, "node1", "cpus")
	if attrs.GetFirst("cpus") != "32" {
		t.Errorf("after modify: %v", attrs)
	}
	// Object survives attribute modification.
	if got, _ := c.Lookup(ctx, "node1"); got != "10.0.0.1" {
		t.Errorf("object lost: %v", got)
	}
	// Rebind preserves attributes when none supplied.
	must(t, c.Rebind(ctx, "node1", "10.9.9.9"))
	attrs, _ = c.GetAttributes(ctx, "node1")
	if attrs.GetFirst("cpus") != "32" {
		t.Errorf("rebind dropped attrs: %v", attrs)
	}
}

func TestListAndSubcontexts(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, nil)
	must(t, c.Bind(ctx, "top", 1))
	sub, err := c.CreateSubcontext(ctx, "dept")
	if err != nil {
		t.Fatal(err)
	}
	must(t, sub.Bind(ctx, "inner", 2))
	// Composite-name access through the parent.
	got, err := c.Lookup(ctx, "dept/inner")
	if err != nil || got != 2 {
		t.Fatalf("composite lookup = %v, %v", got, err)
	}
	pairs, err := c.List(ctx, "")
	if err != nil || len(pairs) != 2 {
		t.Fatalf("list = %+v, %v", pairs, err)
	}
	if pairs[0].Name != "dept" || pairs[0].Class != core.ContextReferenceClass {
		t.Errorf("list[0] = %+v", pairs[0])
	}
	if pairs[1].Name != "top" {
		t.Errorf("list[1] = %+v", pairs[1])
	}
	// Virtual intermediate contexts: binding a deep name without
	// explicit subcontexts still lists.
	must(t, c.Bind(ctx, "a/b/c", "deep"))
	obj, err := c.Lookup(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	actx, ok := obj.(core.Context)
	if !ok {
		t.Fatalf("a = %T", obj)
	}
	if got, _ := actx.Lookup(ctx, "b/c"); got != "deep" {
		t.Errorf("virtual ctx lookup = %v", got)
	}
	// Destroy requires empty.
	if err := c.DestroySubcontext(ctx, "dept"); !errors.Is(err, core.ErrContextNotEmpty) {
		t.Errorf("destroy non-empty: %v", err)
	}
	must(t, sub.Unbind(ctx, "inner"))
	must(t, c.DestroySubcontext(ctx, "dept"))
}

func TestRename(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, nil)
	must(t, c.BindAttrs(ctx, "from", "v", core.NewAttributes("k", "1")))
	must(t, c.Rename(ctx, "from", "to"))
	if _, err := c.Lookup(ctx, "from"); !errors.Is(err, core.ErrNotFound) {
		t.Error("old name survives")
	}
	got, err := c.Lookup(ctx, "to")
	if err != nil || got != "v" {
		t.Fatalf("new name = %v, %v", got, err)
	}
	attrs, _ := c.GetAttributes(ctx, "to")
	if attrs.GetFirst("k") != "1" {
		t.Error("rename dropped attributes")
	}
}

// Lease handling (§5.1): the provider renews leases while open; after
// Close, bindings expire from the LUS.
func TestLeaseRenewalLifecycle(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	env := map[string]any{EnvLeaseMs: 300}
	c, err := Open(ctx, l.Addr(), env)
	if err != nil {
		t.Fatal(err)
	}
	must(t, c.Bind(ctx, "leased", "v"))
	// Well beyond the lease, the binding survives (renewal).
	time.Sleep(900 * time.Millisecond)
	got, err := c.Lookup(ctx, "leased")
	if err != nil || got != "v" {
		t.Fatalf("binding expired despite renewal: %v, %v", got, err)
	}
	// After close (the "VM exit"), the lease lapses.
	c2 := openCtx(t, l, nil) // observer
	must(t, c.Close())
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c2.Lookup(ctx, "leased")
		if errors.Is(err, core.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("binding never expired after provider close")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestWatchEvents(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, nil)
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
	must(t, c.Bind(ctx, "w", 1))
	must(t, c.Rebind(ctx, "w", 2))
	must(t, c.Unbind(ctx, "w"))
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d events", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Type != core.EventObjectAdded || got[0].Name != "w" {
		t.Errorf("event 0 = %+v", got[0])
	}
	if got[1].Type != core.EventObjectChanged || got[1].NewValue != 2 {
		t.Errorf("event 1 = %+v", got[1])
	}
	if got[2].Type != core.EventObjectRemoved {
		t.Errorf("event 2 = %+v", got[2])
	}
}

func TestFederationBoundary(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, nil)
	// Bind a reference to a foreign naming system mid-path.
	ref := core.NewContextReference("mem://other")
	must(t, c.Bind(ctx, "gateway", ref))
	_, err := c.Lookup(ctx, "gateway/deeper/name")
	var cpe *core.CannotProceedError
	if !errors.As(err, &cpe) {
		t.Fatalf("want CannotProceedError, got %v", err)
	}
	if cpe.RemainingName.String() != "deeper/name" {
		t.Errorf("remaining = %q", cpe.RemainingName.String())
	}
	if r, ok := cpe.Resolved.(*core.Reference); !ok {
		t.Errorf("resolved = %T", cpe.Resolved)
	} else if url, _ := r.Get(core.AddrURL); url != "mem://other" {
		t.Errorf("url = %q", url)
	}
}

func TestProviderRegistration(t *testing.T) {
	ctx := context.Background()
	Register()
	l := newLUS(t)
	nc, rest, err := core.OpenURL(ctx, "jini://"+l.Addr()+"/a/b", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if rest.String() != "a/b" {
		t.Errorf("rest = %q", rest.String())
	}
	if _, ok := obs.Uninstrument(nc).(*Context); !ok {
		t.Errorf("nc = %T", nc)
	}
}

func TestClosedContext(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	c := openCtx(t, l, nil)
	must(t, c.Close())
	if _, err := c.Lookup(ctx, "x"); !errors.Is(err, core.ErrClosed) {
		t.Errorf("lookup after close: %v", err)
	}
	if err := c.Bind(ctx, "x", 1); !errors.Is(err, core.ErrClosed) {
		t.Errorf("bind after close: %v", err)
	}
}

func TestReference(t *testing.T) {
	l := newLUS(t)
	c := openCtx(t, l, nil)
	ref, err := c.Reference()
	if err != nil {
		t.Fatal(err)
	}
	url, _ := ref.Get(core.AddrURL)
	if url != "jini://"+l.Addr() {
		t.Errorf("url = %q", url)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Proxy bind semantics (the §7 optimization): atomic like strict, but the
// locking happens at a proxy colocated with the LUS.
func TestProxyBindSemantics(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	proxy, err := jini.NewBindProxy(l.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	open := func(pool string) *Context {
		c, err := Open(ctx, l.Addr(), map[string]any{
			EnvBind:        "proxy",
			EnvProxyAddr:   proxy.Addr(),
			core.EnvPoolID: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := open(t.Name())
	must(t, c.BindAttrs(ctx, "svc", "v1", core.NewAttributes("k", "a")))
	if err := c.Bind(ctx, "svc", "v2"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Fatalf("dup bind: %v", err)
	}
	if got, _ := c.Lookup(ctx, "svc"); got != "v1" {
		t.Fatalf("value after failed bind = %v", got)
	}
	must(t, c.Rebind(ctx, "svc", "v3"))
	attrs, _ := c.GetAttributes(ctx, "svc")
	if attrs.GetFirst("k") != "a" {
		t.Fatalf("rebind dropped attrs: %v", attrs)
	}
	// Concurrent binds of one name through independent proxy contexts:
	// exactly one winner, no client-side locking.
	const racers = 6
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc := open(fmt.Sprintf("%s-r%d", t.Name(), i))
			if err := pc.Bind(ctx, "contested", i); err == nil {
				wins <- i
			} else if !errors.Is(err, core.ErrAlreadyBound) {
				t.Errorf("racer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("proxy bind produced %d winners", n)
	}
	// Subcontext creation goes through the proxy too.
	if _, err := c.CreateSubcontext(ctx, "dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSubcontext(ctx, "dir"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Fatalf("dup subcontext: %v", err)
	}
}

func TestProxyModeRequiresAddr(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	if _, err := Open(ctx, l.Addr(), map[string]any{EnvBind: "proxy"}); err == nil {
		t.Fatal("proxy mode without address accepted")
	}
}

// Closing one root context twice releases one reference, not two: the
// other holder of the pooled registrar keeps working.
func TestDoubleCloseKeepsSharedConnection(t *testing.T) {
	ctx := context.Background()
	l := newLUS(t)
	env := map[string]any{EnvBind: "relaxed", core.EnvPoolID: t.Name()}
	a := openCtx(t, l, env)
	b := openCtx(t, l, env)
	must(t, b.Bind(ctx, "x", "v"))
	must(t, a.Close())
	must(t, a.Close())
	if got, err := b.Lookup(ctx, "x"); err != nil || got != "v" {
		t.Fatalf("other holder after a double close: %v, %v", got, err)
	}
}

// The last holder of a dead registrar closing it must not evict the live
// connection that replaced it.
func TestDeadEntryDoesNotEvictReplacement(t *testing.T) {
	l := newLUS(t)
	env := map[string]any{core.EnvPoolID: t.Name()}
	a := openCtx(t, l, env)
	a.sh.reg.Close()
	b := openCtx(t, l, env)
	if b.sh == a.sh {
		t.Fatal("a dead connection was handed out again")
	}
	must(t, a.Close())
	if c := openCtx(t, l, env); c.sh != b.sh {
		t.Fatal("the dead entry's last close evicted its replacement: a second connection was dialled")
	}
}

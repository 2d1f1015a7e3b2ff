package memsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
)

func newCtx() *Context {
	return NewContext(NewTree(), nil, "")
}

func TestBindLookup(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	if err := c.Bind(ctx, "a", "va"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "a")
	if err != nil || got != "va" {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	// Atomic bind: second bind fails.
	if err := c.Bind(ctx, "a", "other"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("want ErrAlreadyBound, got %v", err)
	}
	// Lookup of missing name.
	if _, err := c.Lookup(ctx, "zzz"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
	// Rebind overwrites.
	if err := c.Rebind(ctx, "a", "vb"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Lookup(ctx, "a"); got != "vb" {
		t.Errorf("after rebind: %v", got)
	}
}

func TestSubcontexts(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	sub, err := c.CreateSubcontext(ctx, "dir")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Bind(ctx, "x", 1); err != nil {
		t.Fatal(err)
	}
	// Visible through the parent by composite name.
	got, err := c.Lookup(ctx, "dir/x")
	if err != nil || got != 1 {
		t.Fatalf("Lookup(dir/x) = %v, %v", got, err)
	}
	// Lookup of a context returns a context.
	obj, err := c.Lookup(ctx, "dir")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.(core.Context); !ok {
		t.Fatalf("Lookup(dir) = %T", obj)
	}
	// Intermediate non-context fails.
	if err := c.Bind(ctx, "dir/x/deep", 2); !errors.Is(err, core.ErrNotContext) {
		t.Errorf("want ErrNotContext, got %v", err)
	}
	// Destroy of non-empty fails.
	if err := c.DestroySubcontext(ctx, "dir"); !errors.Is(err, core.ErrContextNotEmpty) {
		t.Errorf("want ErrContextNotEmpty, got %v", err)
	}
	if err := sub.Unbind(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroySubcontext(ctx, "dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "dir"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("dir should be gone, got %v", err)
	}
	// Destroying a nonexistent subcontext succeeds (JNDI).
	if err := c.DestroySubcontext(ctx, "ghost"); err != nil {
		t.Errorf("destroy missing: %v", err)
	}
	// Destroying a non-context fails.
	if err := c.Bind(ctx, "leaf", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroySubcontext(ctx, "leaf"); !errors.Is(err, core.ErrNotContext) {
		t.Errorf("want ErrNotContext, got %v", err)
	}
}

func TestUnbindSemantics(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	// Unbind of absent terminal name succeeds.
	if err := c.Unbind(ctx, "missing"); err != nil {
		t.Errorf("unbind missing: %v", err)
	}
	// But intermediate contexts must exist.
	if err := c.Unbind(ctx, "no/such/path"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestRename(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	must(t, c.Bind(ctx, "a", "v"))
	must(t, c.Rename(ctx, "a", "b"))
	if _, err := c.Lookup(ctx, "a"); !errors.Is(err, core.ErrNotFound) {
		t.Error("old name still bound")
	}
	if got, _ := c.Lookup(ctx, "b"); got != "v" {
		t.Errorf("new name = %v", got)
	}
	must(t, c.Bind(ctx, "c", "w"))
	if err := c.Rename(ctx, "b", "c"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("want ErrAlreadyBound, got %v", err)
	}
	if err := c.Rename(ctx, "ghost", "d"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestListAndListBindings(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	must(t, c.Bind(ctx, "b", 2))
	must(t, c.Bind(ctx, "a", "one"))
	if _, err := c.CreateSubcontext(ctx, "sub"); err != nil {
		t.Fatal(err)
	}
	pairs, err := c.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 || pairs[0].Name != "a" || pairs[1].Name != "b" || pairs[2].Name != "sub" {
		t.Fatalf("List = %+v", pairs)
	}
	if pairs[2].Class != core.ContextReferenceClass {
		t.Errorf("sub class = %q", pairs[2].Class)
	}
	bindings, err := c.ListBindings(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if bindings[0].Object != "one" || bindings[1].Object != 2 {
		t.Errorf("ListBindings = %+v", bindings)
	}
	if _, ok := bindings[2].Object.(core.Context); !ok {
		t.Errorf("sub object = %T", bindings[2].Object)
	}
	// List of a non-context fails.
	if _, err := c.List(ctx, "a"); !errors.Is(err, core.ErrNotContext) {
		t.Errorf("want ErrNotContext, got %v", err)
	}
}

func TestAttributesOps(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	must(t, c.BindAttrs(ctx, "host1", "addr1", core.NewAttributes("type", "compute", "cpus", "8")))
	attrs, err := c.GetAttributes(ctx, "host1")
	if err != nil {
		t.Fatal(err)
	}
	if attrs.GetFirst("type") != "compute" {
		t.Errorf("attrs = %v", attrs)
	}
	// Restricted fetch.
	attrs, _ = c.GetAttributes(ctx, "host1", "cpus")
	if attrs.Size() != 1 || attrs.GetFirst("cpus") != "8" {
		t.Errorf("restricted attrs = %v", attrs)
	}
	// Modify.
	must(t, c.ModifyAttributes(ctx, "host1", []core.AttributeMod{
		{Op: core.ModReplace, Attr: core.Attribute{ID: "cpus", Values: []string{"16"}}},
		{Op: core.ModAdd, Attr: core.Attribute{ID: "gpu", Values: []string{"yes"}}},
	}))
	attrs, _ = c.GetAttributes(ctx, "host1")
	if attrs.GetFirst("cpus") != "16" || attrs.GetFirst("gpu") != "yes" {
		t.Errorf("after modify: %v", attrs)
	}
	// Bad batch leaves attributes untouched.
	err = c.ModifyAttributes(ctx, "host1", []core.AttributeMod{
		{Op: core.ModRemove, Attr: core.Attribute{ID: "gpu"}},
		{Op: core.ModOp(99), Attr: core.Attribute{ID: "x"}},
	})
	if err == nil {
		t.Fatal("bad batch should fail")
	}
	attrs, _ = c.GetAttributes(ctx, "host1")
	if _, ok := attrs.Get("gpu"); !ok {
		t.Error("failed batch partially applied")
	}
	// RebindAttrs with nil attrs preserves them.
	must(t, c.RebindAttrs(ctx, "host1", "addr2", nil))
	attrs, _ = c.GetAttributes(ctx, "host1")
	if attrs.GetFirst("cpus") != "16" {
		t.Error("rebind with nil attrs dropped attributes")
	}
	// RebindAttrs with empty attrs clears them.
	must(t, c.RebindAttrs(ctx, "host1", "addr3", &core.Attributes{}))
	attrs, _ = c.GetAttributes(ctx, "host1")
	if attrs.Size() != 0 {
		t.Errorf("attrs should be cleared: %v", attrs)
	}
}

func TestSearch(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	sub, _ := c.CreateSubcontext(ctx, "cluster")
	for i := 0; i < 5; i++ {
		must(t, sub.(*Context).BindAttrs(ctx,
			fmt.Sprintf("node%d", i), fmt.Sprintf("10.0.0.%d", i),
			core.NewAttributes("type", "compute", "rank", fmt.Sprint(i))))
	}
	must(t, c.BindAttrs(ctx, "gateway", "10.1.0.1", core.NewAttributes("type", "gateway")))

	// Subtree search from root.
	res, err := c.Search(ctx, "", "(type=compute)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("subtree search = %d results", len(res))
	}
	if res[0].Name != "cluster/node0" {
		t.Errorf("first result = %q", res[0].Name)
	}
	// One-level scope from root misses nested nodes.
	res, _ = c.Search(ctx, "", "(type=compute)", &core.SearchControls{Scope: core.ScopeOneLevel})
	if len(res) != 0 {
		t.Errorf("one-level = %d", len(res))
	}
	res, _ = c.Search(ctx, "", "(type=gateway)", &core.SearchControls{Scope: core.ScopeOneLevel})
	if len(res) != 1 || res[0].Name != "gateway" {
		t.Errorf("one-level gateway = %+v", res)
	}
	// Object scope.
	res, _ = c.Search(ctx, "gateway", "(type=gateway)", &core.SearchControls{Scope: core.ScopeObject})
	if len(res) != 1 || res[0].Name != "" {
		t.Errorf("object scope = %+v", res)
	}
	// Count limit returns partial results plus LimitExceededError.
	res, err = c.Search(ctx, "", "(type=*)", &core.SearchControls{Scope: core.ScopeSubtree, CountLimit: 2})
	var lim *core.LimitExceededError
	if !errors.As(err, &lim) || len(res) != 2 {
		t.Errorf("limit: res=%d err=%v", len(res), err)
	}
	// Return-object and attribute selection.
	res, err = c.Search(ctx, "cluster", "(rank=3)", &core.SearchControls{
		Scope: core.ScopeSubtree, ReturnObject: true, ReturnAttrs: []string{"rank"},
	})
	if err != nil || len(res) != 1 {
		t.Fatalf("rank search: %v %v", res, err)
	}
	if res[0].Object != "10.0.0.3" || res[0].Attributes.Size() != 1 {
		t.Errorf("result = %+v", res[0])
	}
	// Invalid filter.
	if _, err := c.Search(ctx, "", "bad filter", nil); err == nil {
		t.Error("bad filter should fail")
	}
}

func TestEvents(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	var mu sync.Mutex
	var got []core.NamingEvent
	record := func(e core.NamingEvent) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}
	cancel, err := c.Watch(ctx, "", core.ScopeSubtree, record)
	if err != nil {
		t.Fatal(err)
	}
	must(t, c.Bind(ctx, "a", 1))
	must(t, c.Rebind(ctx, "a", 2))
	must(t, c.Unbind(ctx, "a"))
	mu.Lock()
	if len(got) != 3 || got[0].Type != core.EventObjectAdded ||
		got[1].Type != core.EventObjectChanged || got[2].Type != core.EventObjectRemoved {
		t.Fatalf("events = %+v", got)
	}
	if got[1].OldValue != 1 || got[1].NewValue != 2 {
		t.Errorf("changed event = %+v", got[1])
	}
	got = nil
	mu.Unlock()
	cancel()
	must(t, c.Bind(ctx, "b", 3))
	mu.Lock()
	if len(got) != 0 {
		t.Errorf("events after cancel: %+v", got)
	}
	mu.Unlock()
}

func TestEventScopes(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	sub, _ := c.CreateSubcontext(ctx, "d")
	_ = sub

	count := func(scope core.SearchScope, target string) *int {
		n := new(int)
		var mu sync.Mutex
		_, err := c.Watch(ctx, target, scope, func(core.NamingEvent) {
			mu.Lock()
			*n++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	objN := count(core.ScopeObject, "d/x")
	oneN := count(core.ScopeOneLevel, "d")
	subN := count(core.ScopeSubtree, "")

	must(t, c.Bind(ctx, "d/x", 1))   // obj+one+sub
	must(t, c.Bind(ctx, "d/y", 2))   // one+sub
	must(t, c.Bind(ctx, "other", 3)) // sub

	if *objN != 1 || *oneN != 2 || *subN != 3 {
		t.Errorf("objN=%d oneN=%d subN=%d", *objN, *oneN, *subN)
	}
}

func TestFederationContinuation(t *testing.T) {
	ctx := context.Background()
	ResetSpaces()
	Register()
	defer ResetSpaces()

	// Two spaces; space B holds data, space A holds a reference to B.
	ic, err := core.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	b, _, err := core.OpenURL(ctx, "mem://spaceB", nil)
	if err != nil {
		t.Fatal(err)
	}
	must(t, b.Bind(ctx, "deep", "treasure"))

	a, _, err := core.OpenURL(ctx, "mem://spaceA", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bind the B context into A via its Reference (the paper's
	// hdnsCtx.bind("jiniCtx", jiniCtx) pattern).
	must(t, ic.Bind(ctx, "mem://spaceA/linkToB", b))
	_ = a

	// Resolving across the boundary must follow the continuation.
	got, err := ic.Lookup(ctx, "mem://spaceA/linkToB/deep")
	if err != nil {
		t.Fatalf("federated lookup: %v", err)
	}
	if got != "treasure" {
		t.Errorf("got %v", got)
	}

	// Writes cross the boundary too.
	must(t, ic.Bind(ctx, "mem://spaceA/linkToB/fresh", "new"))
	if got, _ := b.Lookup(ctx, "fresh"); got != "new" {
		t.Errorf("write did not cross boundary: %v", got)
	}

	// Lookup of the boundary itself yields a usable context.
	obj, err := ic.Lookup(ctx, "mem://spaceA/linkToB")
	if err != nil {
		t.Fatal(err)
	}
	bctx, ok := obj.(core.Context)
	if !ok {
		t.Fatalf("boundary = %T", obj)
	}
	if got, _ := bctx.Lookup(ctx, "deep"); got != "treasure" {
		t.Errorf("boundary context lookup = %v", got)
	}
}

func TestLinkRefResolution(t *testing.T) {
	ctx := context.Background()
	ResetSpaces()
	Register()
	defer ResetSpaces()
	ic, err := core.Open(ctx, core.WithProviderURL("mem://links"))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	must(t, ic.Bind(ctx, "real", "value"))
	must(t, ic.Bind(ctx, "alias", core.LinkRef{Target: "mem://links/real"}))
	got, err := ic.Lookup(ctx, "alias")
	if err != nil || got != "value" {
		t.Fatalf("link lookup = %v, %v", got, err)
	}
	// LookupLink does not follow.
	raw, err := ic.LookupLink(ctx, "alias")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.(core.LinkRef); !ok {
		t.Errorf("LookupLink = %T", raw)
	}
}

func TestInitialContextDefault(t *testing.T) {
	ctx := context.Background()
	ResetSpaces()
	Register()
	defer ResetSpaces()
	ic, err := core.Open(ctx, core.WithProviderURL("mem://default"))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	must(t, ic.Bind(ctx, "plain", "p"))
	got, err := ic.Lookup(ctx, "plain")
	if err != nil || got != "p" {
		t.Fatalf("default ctx lookup = %v, %v", got, err)
	}
	// Same space via URL.
	got, err = ic.Lookup(ctx, "mem://default/plain")
	if err != nil || got != "p" {
		t.Fatalf("url lookup = %v, %v", got, err)
	}
	// Search through the initial context.
	must(t, ic.BindAttrs(ctx, "svc", "obj", core.NewAttributes("type", "db")))
	res, err := ic.Search(ctx, "", "(type=db)", nil)
	if err != nil || len(res) != 1 || res[0].Name != "svc" {
		t.Fatalf("search = %+v, %v", res, err)
	}
	if err := ic.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedContext(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	must(t, c.Close())
	if _, err := c.Lookup(ctx, "a"); !errors.Is(err, core.ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if err := c.Bind(ctx, "a", 1); !errors.Is(err, core.ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("g%d-i%d", g, i)
				if err := c.Bind(ctx, name, i); err != nil {
					t.Errorf("bind %s: %v", name, err)
					return
				}
				if v, err := c.Lookup(ctx, name); err != nil || v != i {
					t.Errorf("lookup %s = %v, %v", name, v, err)
					return
				}
				if err := c.Unbind(ctx, name); err != nil {
					t.Errorf("unbind %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	pairs, err := c.List(ctx, "")
	if err != nil || len(pairs) != 0 {
		t.Errorf("leftover bindings: %v, %v", pairs, err)
	}
}

// Property-flavoured test: bind N random names, verify all retrievable,
// unbind half, verify membership exactly matches the model.
func TestModelConformance(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	model := map[string]int{}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("k%03d", i*7%200)
		if _, ok := model[name]; ok {
			continue
		}
		model[name] = i
		must(t, c.Bind(ctx, name, i))
	}
	for name := range model {
		if len(name)%2 == 0 {
			must(t, c.Unbind(ctx, name))
			delete(model, name)
		}
	}
	pairs, err := c.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(model) {
		t.Fatalf("list %d vs model %d", len(pairs), len(model))
	}
	for _, p := range pairs {
		want, ok := model[p.Name]
		if !ok {
			t.Errorf("unexpected binding %q", p.Name)
			continue
		}
		got, err := c.Lookup(ctx, p.Name)
		if err != nil || got != want {
			t.Errorf("lookup %q = %v, %v; want %d", p.Name, got, err, want)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSearchTimeLimit(t *testing.T) {
	ctx := context.Background()
	c := newCtx()
	for i := 0; i < 5; i++ {
		must(t, c.BindAttrs(ctx, fmt.Sprintf("n%d", i), i,
			core.NewAttributes("type", "compute")))
	}
	// An already-expired limit stops the walk on its first step: the
	// typed error surfaces and whatever was gathered comes back.
	res, err := c.Search(ctx, "", "(type=compute)",
		&core.SearchControls{Scope: core.ScopeSubtree, TimeLimit: time.Nanosecond})
	var tle *core.TimeLimitExceededError
	if !errors.As(err, &tle) {
		t.Fatalf("want TimeLimitExceededError, got %v (results %v)", err, res)
	}
	if tle.Limit != time.Nanosecond {
		t.Errorf("Limit = %v", tle.Limit)
	}
	// A generous limit behaves like no limit at all.
	res, err = c.Search(ctx, "", "(type=compute)",
		&core.SearchControls{Scope: core.ScopeSubtree, TimeLimit: time.Minute})
	if err != nil || len(res) != 5 {
		t.Fatalf("generous limit = %d results, %v", len(res), err)
	}
}

// TestLookupAllocs gates what answering operations in Do costs a
// provider: a Lookup through the typed method the adapter provides, and
// one through core.Do, allocate no more than the hand-written Lookup they
// replaced: 5, measured before they were replaced. scripts/check.sh
// allocs runs it.
func TestLookupAllocs(t *testing.T) {
	const handWritten = 5
	ctx := context.Background()
	c := newCtx()
	if _, err := c.CreateSubcontext(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(ctx, "a/b", "v"); err != nil {
		t.Fatal(err)
	}
	// Through an interface, as callers hold it, so nothing is devirtualized.
	var dc core.Context = c
	typed := testing.AllocsPerRun(1000, func() {
		if _, err := dc.Lookup(ctx, "a/b"); err != nil {
			t.Fatal(err)
		}
	})
	do := testing.AllocsPerRun(1000, func() {
		if _, err := core.Do(ctx, dc, core.Op{Kind: core.OpLookup, Name: "a/b"}); err != nil {
			t.Fatal(err)
		}
	})
	if typed > handWritten || do > handWritten {
		t.Fatalf("Lookup allocates %v times through the typed method and %v through core.Do, want <= %d", typed, do, handWritten)
	}
}

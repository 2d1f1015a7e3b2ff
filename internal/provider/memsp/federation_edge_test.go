package memsp

// Edge cases of the federation machinery, exercised through the in-memory
// provider: reference cycles, link loops, cross-system renames, and
// continuation behaviour for every operation class.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gondi/internal/core"
)

func fedInit(t *testing.T) *core.InitialContext {
	t.Helper()
	ResetSpaces()
	Register()
	t.Cleanup(ResetSpaces)
	ic, err := core.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ic.Close() })
	return ic
}

func TestReferenceCycleDetected(t *testing.T) {
	ctx := context.Background()
	ic := fedInit(t)
	// a -> b -> a: resolution around the loop must terminate with a
	// hop-count error, not hang.
	if err := ic.Bind(ctx, "mem://a/next", core.NewContextReference("mem://b")); err != nil {
		t.Fatal(err)
	}
	if err := ic.Bind(ctx, "mem://b/next", core.NewContextReference("mem://a")); err != nil {
		t.Fatal(err)
	}
	_, err := ic.Lookup(ctx, "mem://a/next/next/next/next/next/next/next/next/next/next/next/next/next/next/next/next/next/next/missing")
	if err == nil {
		t.Fatal("cyclic resolution succeeded")
	}
	if !strings.Contains(err.Error(), "hops") && !errors.Is(err, core.ErrNotFound) {
		t.Logf("cycle error: %v", err)
	}
}

func TestLinkLoopDetected(t *testing.T) {
	ctx := context.Background()
	ic := fedInit(t)
	if err := ic.Bind(ctx, "mem://links/a", core.LinkRef{Target: "mem://links/b"}); err != nil {
		t.Fatal(err)
	}
	if err := ic.Bind(ctx, "mem://links/b", core.LinkRef{Target: "mem://links/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Lookup(ctx, "mem://links/a"); err == nil {
		t.Fatal("link loop resolved")
	}
}

func TestRenameAcrossNamingSystemsRejected(t *testing.T) {
	ctx := context.Background()
	ic := fedInit(t)
	if err := ic.Bind(ctx, "mem://s1/x", 1); err != nil {
		t.Fatal(err)
	}
	if err := ic.Rename(ctx, "mem://s1/x", "mem://s2/y"); err == nil {
		t.Fatal("cross-authority rename succeeded")
	}
	if err := ic.Rename(ctx, "mem://s1/x", "plain/name"); err == nil {
		t.Fatal("URL-to-plain rename succeeded")
	}
	// Same-authority URL rename works.
	if err := ic.Rename(ctx, "mem://s1/x", "mem://s1/y"); err != nil {
		t.Fatal(err)
	}
	if got, _ := ic.Lookup(ctx, "mem://s1/y"); got != 1 {
		t.Fatalf("renamed = %v", got)
	}
}

func TestContinuationForEveryOperationClass(t *testing.T) {
	ctx := context.Background()
	ic := fedInit(t)
	// far holds the data; near holds a reference to far.
	if err := ic.Bind(ctx, "mem://near/hop", core.NewContextReference("mem://far")); err != nil {
		t.Fatal(err)
	}
	base := "mem://near/hop"

	if _, err := ic.CreateSubcontext(ctx, base+"/dir"); err != nil {
		t.Fatal(err)
	}
	if err := ic.BindAttrs(ctx, base+"/dir/x", "v", core.NewAttributes("k", "1")); err != nil {
		t.Fatal(err)
	}
	if got, err := ic.Lookup(ctx, base+"/dir/x"); err != nil || got != "v" {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if attrs, err := ic.GetAttributes(ctx, base+"/dir/x"); err != nil || attrs.GetFirst("k") != "1" {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	if err := ic.ModifyAttributes(ctx, base+"/dir/x", []core.AttributeMod{
		{Op: core.ModReplace, Attr: core.Attribute{ID: "k", Values: []string{"2"}}},
	}); err != nil {
		t.Fatal(err)
	}
	if res, err := ic.Search(ctx, base+"/dir", "(k=2)", &core.SearchControls{Scope: core.ScopeSubtree}); err != nil || len(res) != 1 {
		t.Fatalf("search = %+v, %v", res, err)
	}
	if pairs, err := ic.List(ctx, base+"/dir"); err != nil || len(pairs) != 1 {
		t.Fatalf("list = %+v, %v", pairs, err)
	}
	if bindings, err := ic.ListBindings(ctx, base+"/dir"); err != nil || bindings[0].Object != "v" {
		t.Fatalf("listBindings = %+v, %v", bindings, err)
	}
	if err := ic.Rebind(ctx, base+"/dir/x", "v2"); err != nil {
		t.Fatal(err)
	}
	if err := ic.Unbind(ctx, base+"/dir/x"); err != nil {
		t.Fatal(err)
	}
	if err := ic.DestroySubcontext(ctx, base+"/dir"); err != nil {
		t.Fatal(err)
	}
	// All of it landed in the far space, not near.
	far, _, err := core.OpenURL(ctx, "mem://far", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := far.Lookup(ctx, "dir"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("far space state: %v", err)
	}
	near, _, err := core.OpenURL(ctx, "mem://near", nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := near.List(ctx, "")
	if err != nil || len(pairs) != 1 || pairs[0].Name != "hop" {
		t.Fatalf("near space grew: %+v, %v", pairs, err)
	}
}

func TestWatchThroughBoundary(t *testing.T) {
	ctx := context.Background()
	ic := fedInit(t)
	if err := ic.Bind(ctx, "mem://wnear/hop", core.NewContextReference("mem://wfar")); err != nil {
		t.Fatal(err)
	}
	var events []core.NamingEvent
	cancel, err := ic.Watch(ctx, "mem://wnear/hop", core.ScopeSubtree, func(e core.NamingEvent) {
		events = append(events, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := ic.Bind(ctx, "mem://wfar/item", 1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "item" {
		t.Fatalf("events = %+v", events)
	}
}

func TestGetStateToBindAttributesMerge(t *testing.T) {
	ctx := context.Background()
	ic := fedInit(t)
	core.RegisterStateFactory(func(obj any, name core.Name, env map[string]any) (any, *core.Attributes, error) {
		if s, ok := obj.(stamped); ok {
			return s.value, core.NewAttributes("stamp", "factory"), nil
		}
		return nil, nil, nil
	})
	if err := ic.BindAttrs(ctx, "mem://sf/x", stamped{value: "inner"},
		core.NewAttributes("user", "set")); err != nil {
		t.Fatal(err)
	}
	got, err := ic.Lookup(ctx, "mem://sf/x")
	if err != nil || got != "inner" {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	attrs, err := ic.GetAttributes(ctx, "mem://sf/x")
	if err != nil {
		t.Fatal(err)
	}
	if attrs.GetFirst("stamp") != "factory" || attrs.GetFirst("user") != "set" {
		t.Fatalf("merged attrs = %v", attrs)
	}
}

type stamped struct{ value string }

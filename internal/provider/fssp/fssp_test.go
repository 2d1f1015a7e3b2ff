package fssp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gondi/internal/core"
)

func newCtx(t *testing.T) *Context {
	t.Helper()
	return NewContext(t.TempDir(), map[string]any{})
}

func TestBindLookupUnbind(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	if err := c.Bind(ctx, "cfg", map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := got.(map[string]string); !ok || m["k"] != "v" {
		t.Fatalf("lookup = %#v", got)
	}
	if err := c.Bind(ctx, "cfg", 1); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup bind: %v", err)
	}
	if err := c.Rebind(ctx, "cfg", "replaced"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Lookup(ctx, "cfg"); got != "replaced" {
		t.Errorf("rebind = %v", got)
	}
	if err := c.Unbind(ctx, "cfg"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "cfg"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("after unbind: %v", err)
	}
	if err := c.Unbind(ctx, "absent"); err != nil {
		t.Errorf("unbind absent: %v", err)
	}
	if err := c.Unbind(ctx, "no/such/dir"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("unbind deep absent: %v", err)
	}
}

func TestSubcontexts(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	sub, err := c.CreateSubcontext(ctx, "etc")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Bind(ctx, "hosts", "127.0.0.1 localhost"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "etc/hosts")
	if err != nil || got != "127.0.0.1 localhost" {
		t.Fatalf("composite = %v, %v", got, err)
	}
	// Dup subcontext.
	if _, err := c.CreateSubcontext(ctx, "etc"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup subctx: %v", err)
	}
	// Destroy non-empty.
	if err := c.DestroySubcontext(ctx, "etc"); !errors.Is(err, core.ErrContextNotEmpty) {
		t.Errorf("destroy non-empty: %v", err)
	}
	if err := sub.Unbind(ctx, "hosts"); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroySubcontext(ctx, "etc"); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroySubcontext(ctx, "etc"); err != nil {
		t.Errorf("destroy absent: %v", err)
	}
}

func TestList(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	must(t, c.Bind(ctx, "b", 2))
	must(t, c.Bind(ctx, "a", 1))
	if _, err := c.CreateSubcontext(ctx, "dir"); err != nil {
		t.Fatal(err)
	}
	pairs, err := c.List(ctx, "")
	if err != nil || len(pairs) != 3 {
		t.Fatalf("list = %+v, %v", pairs, err)
	}
	if pairs[0].Name != "a" || pairs[1].Name != "b" || pairs[2].Name != "dir" {
		t.Errorf("order = %+v", pairs)
	}
	if pairs[2].Class != core.ContextReferenceClass {
		t.Errorf("dir class = %q", pairs[2].Class)
	}
	if _, err := c.List(ctx, "a"); !errors.Is(err, core.ErrNotContext) {
		t.Errorf("list leaf: %v", err)
	}
	if _, err := c.List(ctx, "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("list ghost: %v", err)
	}
}

func TestAttributesAndSearch(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	must(t, c.BindAttrs(ctx, "j1", "job1", core.NewAttributes("state", "running", "prio", "5")))
	must(t, c.BindAttrs(ctx, "j2", "job2", core.NewAttributes("state", "queued", "prio", "9")))
	sub, _ := c.CreateSubcontext(ctx, "archive")
	must(t, sub.(*Context).BindAttrs(ctx, "j0", "job0", core.NewAttributes("state", "done")))

	attrs, err := c.GetAttributes(ctx, "j1")
	if err != nil || attrs.GetFirst("state") != "running" {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	res, err := c.Search(ctx, "", "(state=done)", &core.SearchControls{Scope: core.ScopeSubtree})
	if err != nil || len(res) != 1 || res[0].Name != "archive/j0" {
		t.Fatalf("subtree search = %+v, %v", res, err)
	}
	res, err = c.Search(ctx, "", "(prio>=6)", &core.SearchControls{Scope: core.ScopeOneLevel, ReturnObject: true})
	if err != nil || len(res) != 1 || res[0].Object != "job2" {
		t.Fatalf("one-level = %+v, %v", res, err)
	}
	must(t, c.ModifyAttributes(ctx, "j1", []core.AttributeMod{
		{Op: core.ModReplace, Attr: core.Attribute{ID: "state", Values: []string{"done"}}},
	}))
	attrs, _ = c.GetAttributes(ctx, "j1")
	if attrs.GetFirst("state") != "done" {
		t.Errorf("after modify: %v", attrs)
	}
	if got, _ := c.Lookup(ctx, "j1"); got != "job1" {
		t.Errorf("object lost: %v", got)
	}
}

func TestRename(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	must(t, c.Bind(ctx, "x", "v"))
	must(t, c.Rename(ctx, "x", "y"))
	if got, _ := c.Lookup(ctx, "y"); got != "v" {
		t.Errorf("renamed = %v", got)
	}
	must(t, c.Bind(ctx, "z", "w"))
	if err := c.Rename(ctx, "y", "z"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("conflict: %v", err)
	}
	// Directory rename.
	if _, err := c.CreateSubcontext(ctx, "d1"); err != nil {
		t.Fatal(err)
	}
	must(t, c.Rename(ctx, "d1", "d2"))
	if _, err := c.Lookup(ctx, "d2"); err != nil {
		t.Errorf("renamed dir: %v", err)
	}
}

func TestPathTraversalRejected(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	for _, bad := range []string{"..", "../x", "a/../b", "."} {
		if err := c.Bind(ctx, bad, 1); err == nil {
			t.Errorf("Bind(%q) succeeded", bad)
		}
	}
}

func TestFederationBoundary(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	must(t, c.Bind(ctx, "link", core.NewContextReference("mem://space")))
	_, err := c.Lookup(ctx, "link/deep")
	var cpe *core.CannotProceedError
	if !errors.As(err, &cpe) {
		t.Fatalf("want continuation, got %v", err)
	}
	if cpe.RemainingName.String() != "deep" {
		t.Errorf("remaining = %q", cpe.RemainingName.String())
	}
}

func TestProviderRegistration(t *testing.T) {
	ctx := context.Background()
	Register()
	dir := t.TempDir()
	nc, rest, err := core.OpenURL(ctx, "file://"+dir+"/sub", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The provider roots at "/" and the path carries the directory.
	want := core.MustParseName(dir[1:] + "/sub")
	if !rest.Equal(want) {
		t.Errorf("rest = %q, want %q", rest.String(), want.String())
	}
}

func TestPersistenceAcrossContexts(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c1 := NewContext(dir, nil)
	must(t, c1.Bind(ctx, "persisted", "data"))
	c2 := NewContext(dir, nil)
	got, err := c2.Lookup(ctx, "persisted")
	if err != nil || got != "data" {
		t.Fatalf("second context = %v, %v", got, err)
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
	c := newCtx(t)
	for i := 0; i < 5; i++ {
		must(t, c.BindAttrs(ctx, fmt.Sprintf("n%d", i), i,
			core.NewAttributes("type", "compute")))
	}
	res, err := c.Search(ctx, "", "(type=compute)",
		&core.SearchControls{Scope: core.ScopeSubtree, TimeLimit: time.Nanosecond})
	var tle *core.TimeLimitExceededError
	if !errors.As(err, &tle) {
		t.Fatalf("want TimeLimitExceededError, got %v (results %v)", err, res)
	}
	res, err = c.Search(ctx, "", "(type=compute)",
		&core.SearchControls{Scope: core.ScopeSubtree, TimeLimit: time.Minute})
	if err != nil || len(res) != 5 {
		t.Fatalf("generous limit = %d results, %v", len(res), err)
	}
}

// A search whose base names a binding tests that binding alone, at depth
// 0: found by ScopeObject and ScopeSubtree, never by ScopeOneLevel (the
// in-memory provider's answer).
func TestSearchBaseNamesBinding(t *testing.T) {
	ctx := context.Background()
	c := newCtx(t)
	must(t, c.BindAttrs(ctx, "n1", "v1", core.NewAttributes("type", "hit")))
	must(t, c.BindAttrs(ctx, "n2", "v2", core.NewAttributes("type", "hit")))
	for scope, want := range map[core.SearchScope]int{
		core.ScopeObject: 1, core.ScopeOneLevel: 0, core.ScopeSubtree: 1,
	} {
		res, err := c.Search(ctx, "n1", "(type=hit)", &core.SearchControls{Scope: scope, ReturnObject: true})
		if err != nil || len(res) != want {
			t.Fatalf("scope %d: %d results (%+v), %v; want %d", scope, len(res), res, err, want)
		}
		if want == 1 && (res[0].Name != "" || res[0].Object != "v1") {
			t.Errorf("scope %d: result %+v, want the base binding named \"\"", scope, res[0])
		}
	}
	if res, err := c.Search(ctx, "n1", "(type=miss)", nil); err != nil || len(res) != 0 {
		t.Errorf("non-matching filter: %+v, %v", res, err)
	}
}

package obs

import (
	"context"
	"errors"
	"testing"
	"time"

	"gondi/internal/core"
)

// fakeCtx is a minimal core.Context whose every op returns err.
type fakeCtx struct {
	err    error
	closed bool
}

func (f *fakeCtx) Lookup(ctx context.Context, name string) (any, error) {
	return "v:" + name, f.err
}
func (f *fakeCtx) LookupLink(ctx context.Context, name string) (any, error) { return nil, f.err }
func (f *fakeCtx) Bind(ctx context.Context, name string, obj any) error     { return f.err }
func (f *fakeCtx) Rebind(ctx context.Context, name string, obj any) error   { return f.err }
func (f *fakeCtx) Unbind(ctx context.Context, name string) error            { return f.err }
func (f *fakeCtx) Rename(ctx context.Context, o, n string) error            { return f.err }
func (f *fakeCtx) List(ctx context.Context, name string) ([]core.NameClassPair, error) {
	return nil, f.err
}
func (f *fakeCtx) ListBindings(ctx context.Context, name string) ([]core.Binding, error) {
	return nil, f.err
}
func (f *fakeCtx) CreateSubcontext(ctx context.Context, name string) (core.Context, error) {
	if f.err != nil {
		return nil, f.err
	}
	return &fakeCtx{}, nil
}
func (f *fakeCtx) DestroySubcontext(ctx context.Context, name string) error { return f.err }
func (f *fakeCtx) NameInNamespace() (string, error)                         { return "fake", nil }
func (f *fakeCtx) Environment() map[string]any                              { return map[string]any{"k": 1} }
func (f *fakeCtx) Close() error                                             { f.closed = true; return nil }

// fakeDirCtx adds DirContext, EventContext, Referenceable and TTL advice.
type fakeDirCtx struct {
	fakeCtx
}

func (f *fakeDirCtx) BindAttrs(ctx context.Context, n string, o any, a *core.Attributes) error {
	return f.err
}
func (f *fakeDirCtx) RebindAttrs(ctx context.Context, n string, o any, a *core.Attributes) error {
	return f.err
}
func (f *fakeDirCtx) GetAttributes(ctx context.Context, n string, ids ...string) (*core.Attributes, error) {
	return core.NewAttributes(), f.err
}
func (f *fakeDirCtx) ModifyAttributes(ctx context.Context, n string, m []core.AttributeMod) error {
	return f.err
}
func (f *fakeDirCtx) Search(ctx context.Context, n, fl string, c *core.SearchControls) ([]core.SearchResult, error) {
	return nil, f.err
}
func (f *fakeDirCtx) CreateSubcontextAttrs(ctx context.Context, n string, a *core.Attributes) (core.DirContext, error) {
	if f.err != nil {
		return nil, f.err
	}
	return &fakeDirCtx{}, nil
}
func (f *fakeDirCtx) Watch(ctx context.Context, t string, s core.SearchScope, l core.Listener) (func(), error) {
	return func() {}, f.err
}
func (f *fakeDirCtx) Reference() (*core.Reference, error) {
	return &core.Reference{Class: "fake"}, nil
}
func (f *fakeDirCtx) AdviseTTL(name string) (time.Duration, bool) { return 3 * time.Second, true }

// fakeViewerCtx adds ContextViewer.
type fakeViewerCtx struct {
	fakeCtx
}

func (f *fakeViewerCtx) View(rest core.Name) core.Context { return &fakeCtx{} }

// instCounters reads the Default-registry instrument values for one
// (system, op) pair.
func instCounters(t *testing.T, system, op string) (ops, errs, lat int64) {
	t.Helper()
	labels := []Label{{"system", system}, {"op", op}}
	o := Default.Counter("gondi_test_ops_total", "", labels...).Value()
	e := Default.Counter("gondi_test_errors_total", "", labels...).Value()
	l := Default.Histogram("gondi_test_op_seconds", "", labels...).Count()
	return o, e, l
}

func TestInstrumentMetersExactlyOnce(t *testing.T) {
	inner := &fakeDirCtx{}
	c := Instrument(inner, "test", "once")
	ctx := context.Background()
	if _, err := c.Lookup(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	ops, errs, lat := instCounters(t, "once", "lookup")
	if ops != 1 || errs != 0 || lat != 1 {
		t.Fatalf("lookup: ops=%d errs=%d lat=%d, want 1/0/1", ops, errs, lat)
	}
	// One op counter and one latency observation per operation, across the
	// whole surface.
	d := c.(core.DirContext)
	e := c.(core.EventContext)
	calls := []struct {
		op string
		do func() error
	}{
		{"bind", func() error { return c.Bind(ctx, "a", 1) }},
		{"rebind", func() error { return c.Rebind(ctx, "a", 1) }},
		{"unbind", func() error { return c.Unbind(ctx, "a") }},
		{"rename", func() error { return c.Rename(ctx, "a", "b") }},
		{"list", func() error { _, err := c.List(ctx, ""); return err }},
		{"listBindings", func() error { _, err := c.ListBindings(ctx, ""); return err }},
		{"lookupLink", func() error { _, err := c.LookupLink(ctx, "a"); return err }},
		{"createSubcontext", func() error { _, err := c.CreateSubcontext(ctx, "s"); return err }},
		{"destroySubcontext", func() error { return c.DestroySubcontext(ctx, "s") }},
		{"getAttributes", func() error { _, err := d.GetAttributes(ctx, "a"); return err }},
		{"modifyAttributes", func() error { return d.ModifyAttributes(ctx, "a", nil) }},
		{"search", func() error { _, err := d.Search(ctx, "", "(x=1)", nil); return err }},
		{"watch", func() error { _, err := e.Watch(ctx, "a", core.ScopeSubtree, func(core.NamingEvent) {}); return err }},
	}
	for _, call := range calls {
		before, _, latBefore := instCounters(t, "once", call.op)
		if err := call.do(); err != nil {
			t.Fatalf("%s: %v", call.op, err)
		}
		after, errsAfter, latAfter := instCounters(t, "once", call.op)
		if after != before+1 || latAfter != latBefore+1 || errsAfter != 0 {
			t.Errorf("%s: ops %d->%d lat %d->%d errs=%d", call.op, before, after, latBefore, latAfter, errsAfter)
		}
	}
	// Attr variants meter under the base op name.
	before, _, _ := instCounters(t, "once", "bind")
	if err := d.BindAttrs(ctx, "a2", 1, nil); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := instCounters(t, "once", "bind"); after != before+1 {
		t.Errorf("BindAttrs not metered as bind: %d -> %d", before, after)
	}
	if err := d.RebindAttrs(ctx, "a2", 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateSubcontextAttrs(ctx, "s2", nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstrumentErrorsCounted(t *testing.T) {
	boom := errors.New("boom")
	c := Instrument(&fakeCtx{err: boom}, "test", "err")
	if _, err := c.Lookup(context.Background(), "a"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	ops, errs, lat := instCounters(t, "err", "lookup")
	if ops != 1 || errs != 1 || lat != 1 {
		t.Fatalf("ops=%d errs=%d lat=%d, want 1/1/1", ops, errs, lat)
	}
}

func TestInstrumentCPEIsNotAnError(t *testing.T) {
	cpe := &core.CannotProceedError{Resolved: "hdns://x/", AltName: "a"}
	c := Instrument(&fakeCtx{err: cpe}, "test", "cpe")
	_, err := c.Lookup(context.Background(), "a")
	var got *core.CannotProceedError
	if !errors.As(err, &got) {
		t.Fatalf("err = %v", err)
	}
	ops, errs, lat := instCounters(t, "cpe", "lookup")
	if ops != 1 || errs != 0 || lat != 1 {
		t.Fatalf("continuation miscounted: ops=%d errs=%d lat=%d, want 1/0/1", ops, errs, lat)
	}
}

func TestInstrumentCapabilityChecks(t *testing.T) {
	// A plain Context gains the Dir/Event surface, but the calls must fail
	// with ErrNotSupported and not be metered.
	c := Instrument(&fakeCtx{}, "test", "plaincap")
	d := c.(core.DirContext)
	ctx := context.Background()
	for op, do := range map[string]func() error{
		"getAttributes":    func() error { _, err := d.GetAttributes(ctx, "a"); return err },
		"modifyAttributes": func() error { return d.ModifyAttributes(ctx, "a", nil) },
		"search":           func() error { _, err := d.Search(ctx, "", "(x=1)", nil); return err },
		"bind":             func() error { return d.BindAttrs(ctx, "a", 1, nil) },
		"rebind":           func() error { return d.RebindAttrs(ctx, "a", 1, nil) },
		"createSubcontext": func() error { _, err := d.CreateSubcontextAttrs(ctx, "a", nil); return err },
		"watch": func() error {
			_, err := c.(core.EventContext).Watch(ctx, "a", core.ScopeSubtree, func(core.NamingEvent) {})
			return err
		},
	} {
		if err := do(); !errors.Is(err, core.ErrNotSupported) {
			t.Errorf("%s: err = %v, want ErrNotSupported", op, err)
		}
		if ops, _, _ := instCounters(t, "plaincap", op); ops != 0 {
			t.Errorf("%s: unsupported call was metered (ops=%d)", op, ops)
		}
	}
}

func TestInstrumentViewerSplit(t *testing.T) {
	// Only inner contexts that rebase expose ContextViewer through the
	// wrapper; the rebased view stays instrumented.
	plain := Instrument(&fakeCtx{}, "test", "view")
	if _, ok := plain.(core.ContextViewer); ok {
		t.Fatal("plain wrapper must not claim ContextViewer")
	}
	viewer := Instrument(&fakeViewerCtx{}, "test", "view")
	v, ok := viewer.(core.ContextViewer)
	if !ok {
		t.Fatal("viewer wrapper lost ContextViewer")
	}
	sub := v.View(core.Name{})
	if _, ok := sub.(*InstCtx); !ok {
		t.Fatalf("rebased view not instrumented: %T", sub)
	}
}

func TestInstrumentNoDoubleWrap(t *testing.T) {
	inner := &fakeCtx{}
	once := Instrument(inner, "test", "dw")
	twice := Instrument(once, "test", "dw")
	if once != twice {
		t.Fatal("same-system re-wrap must be a no-op")
	}
	other := Instrument(once, "test", "dw2")
	if other == once {
		t.Fatal("different system must wrap again")
	}
	if got := Uninstrument(other); got != inner {
		t.Fatalf("Uninstrument = %T, want the original inner", got)
	}
	if got := Uninstrument(inner); got != inner {
		t.Fatal("Uninstrument of an unwrapped context must be identity")
	}
}

func TestInstrumentChildContextsStayInstrumented(t *testing.T) {
	c := Instrument(&fakeCtx{}, "test", "child")
	sub, err := c.CreateSubcontext(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sub.(*InstCtx); !ok {
		t.Fatalf("subcontext not instrumented: %T", sub)
	}
	// Lookup of a context value re-wraps it too (fakeCtx returns a string,
	// so exercise via a nested fake returning a context).
	d := InstrumentDir(&fakeDirCtx{}, "test", "child")
	sd, err := d.CreateSubcontextAttrs(context.Background(), "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sd.(*InstCtx); !ok {
		t.Fatalf("attr subcontext not instrumented: %T", sd)
	}
}

func TestInstrumentPassthroughs(t *testing.T) {
	inner := &fakeDirCtx{}
	c := Instrument(inner, "test", "pass").(*InstCtx)
	if n, _ := c.NameInNamespace(); n != "fake" {
		t.Errorf("NameInNamespace = %q", n)
	}
	if env := c.Environment(); env["k"] != 1 {
		t.Errorf("Environment = %v", env)
	}
	if ref, err := c.Reference(); err != nil || ref.Class != "fake" {
		t.Errorf("Reference = %v, %v", ref, err)
	}
	if ttl, ok := c.AdviseTTL("x"); !ok || ttl != 3*time.Second {
		t.Errorf("AdviseTTL = %v, %v", ttl, ok)
	}
	if err := c.Close(); err != nil || !inner.closed {
		t.Errorf("Close not forwarded (err=%v closed=%v)", err, inner.closed)
	}
	// A plain inner: Reference and AdviseTTL degrade gracefully.
	p := Instrument(&fakeCtx{}, "test", "pass2").(*InstCtx)
	if _, err := p.Reference(); !errors.Is(err, core.ErrNotSupported) {
		t.Errorf("Reference on plain inner: %v", err)
	}
	if _, ok := p.AdviseTTL("x"); ok {
		t.Error("AdviseTTL on plain inner must report false")
	}
}

func TestInstrumentMetersBatchAsOneOp(t *testing.T) {
	// A batch is one op under its own label, however many items it carries
	// and whether or not inner batches natively.
	c := Instrument(&fakeCtx{}, "test", "batch")
	out, err := core.LookupMany(context.Background(), c, []string{"a", "b", "c"})
	if err != nil || len(out) != 3 || out[2].Value != "v:c" {
		t.Fatalf("LookupMany = %+v, %v", out, err)
	}
	if ops, errs, lat := instCounters(t, "batch", "lookupMany"); ops != 1 || errs != 0 || lat != 1 {
		t.Fatalf("lookupMany: ops=%d errs=%d lat=%d, want 1/0/1", ops, errs, lat)
	}
	if ops, _, _ := instCounters(t, "batch", "lookup"); ops != 0 {
		t.Errorf("batch items metered as %d unary lookups", ops)
	}
}

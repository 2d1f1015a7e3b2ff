package obs

import (
	"context"
	"errors"
	"testing"

	"gondi/internal/core"
)

func TestMiddlewareBeginOp(t *testing.T) {
	ResetTraces()
	r := NewRegistry()
	m := newMiddlewareRegistry(r)
	ctx, finish := m.BeginOp(context.Background(), "lookup", "dns://a/x")
	if TraceFrom(ctx) == nil {
		t.Fatal("BeginOp did not start a trace")
	}
	finish(nil)
	if got := r.Counter("gondi_resolve_ops_total", "", Label{"op", "lookup"}).Value(); got != 1 {
		t.Errorf("ops = %d", got)
	}
	if got := r.Counter("gondi_resolve_errors_total", "", Label{"op", "lookup"}).Value(); got != 0 {
		t.Errorf("errs = %d", got)
	}
	if got := r.Histogram("gondi_resolve_seconds", "", Label{"op", "lookup"}).Count(); got != 1 {
		t.Errorf("lat = %d", got)
	}
	if len(RecentTraces(1)) != 1 {
		t.Error("finished trace not in ring")
	}

	_, finish = m.BeginOp(context.Background(), "bind", "x")
	finish(errors.New("boom"))
	if got := r.Counter("gondi_resolve_errors_total", "", Label{"op", "bind"}).Value(); got != 1 {
		t.Errorf("bind errs = %d", got)
	}
}

func TestMiddlewareBeginOpDisabled(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	r := NewRegistry()
	m := newMiddlewareRegistry(r)
	ctx, finish := m.BeginOp(context.Background(), "lookup", "x")
	if TraceFrom(ctx) != nil {
		t.Fatal("trace started while disabled")
	}
	finish(nil)
	if got := r.Counter("gondi_resolve_ops_total", "", Label{"op", "lookup"}).Value(); got != 0 {
		t.Errorf("ops = %d while disabled", got)
	}
}

func TestMiddlewareOpenURLNext(t *testing.T) {
	r := NewRegistry()
	m := newMiddlewareRegistry(r)
	ctx, finish := StartTrace(context.Background(), "lookup", "hdns://h1:7001/a/b")

	inner := &fakeCtx{}
	next := func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		return inner, core.NewName("a", "b"), nil
	}
	c, rest, err := m.OpenURLNext(ctx, "hdns://h1:7001/a/b", nil, next)
	if err != nil || c != inner || rest.Size() != 2 {
		t.Fatalf("OpenURLNext = %v, %v, %v", c, rest, err)
	}
	if got := r.Counter("gondi_federation_hops_total", "", Label{"scheme", "hdns"}).Value(); got != 1 {
		t.Errorf("hops = %d", got)
	}

	failing := func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		return nil, core.Name{}, errors.New("unreachable")
	}
	if _, _, err := m.OpenURLNext(ctx, "dns://127.0.0.1:53/x", nil, failing); err == nil {
		t.Fatal("error swallowed")
	}
	if got := r.Counter("gondi_federation_hop_errors_total", "", Label{"scheme", "dns"}).Value(); got != 1 {
		t.Errorf("hop errors = %d", got)
	}

	tr := finish(errors.New("unreachable"))
	if len(tr.Hops) != 2 || tr.Hops[0].Scheme != "hdns" || tr.Hops[1].Scheme != "dns" {
		t.Fatalf("hops = %+v", tr.Hops)
	}
	if tr.Hops[1].Err == "" {
		t.Error("failed hop not annotated")
	}
}

func TestMiddlewareOpenURLDisabledPassesThrough(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	r := NewRegistry()
	m := newMiddlewareRegistry(r)
	called := false
	next := func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		called = true
		return &fakeCtx{}, core.Name{}, nil
	}
	if _, _, err := m.OpenURLNext(context.Background(), "mem://x/", nil, next); err != nil || !called {
		t.Fatalf("passthrough broken: err=%v called=%v", err, called)
	}
	if got := r.Counter("gondi_federation_hops_total", "", Label{"scheme", "mem"}).Value(); got != 0 {
		t.Errorf("hop counted while disabled: %d", got)
	}
}

func TestMiddlewareClose(t *testing.T) {
	m := NewMiddleware()
	if err := m.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
}

func TestSplitURL(t *testing.T) {
	for _, tc := range []struct {
		in, scheme, authority string
	}{
		{"hdns://h1:7001/a/b", "hdns", "h1:7001"},
		{"dns://127.0.0.1:53", "dns", "127.0.0.1:53"},
		{"mem://", "mem", ""},
		{"file:/tmp/x", "file", ""},
		{"plainname", "plainname", ""},
		{"", "", ""},
	} {
		s, a := splitURL(tc.in)
		if s != tc.scheme || a != tc.authority {
			t.Errorf("splitURL(%q) = %q, %q; want %q, %q", tc.in, s, a, tc.scheme, tc.authority)
		}
	}
}

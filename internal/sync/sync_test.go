package sync_test

// Unit tests for the sync engine's degraded-read path: the fallback
// middleware must serve mirrored reads while the origin is down, stay
// typed when the mirror is down too, and never divert writes. The
// "flk" provider built here is a mem-backed registry with two kill
// switches — one failing opens, one failing operations — so each
// divert path is reachable deterministically.

import (
	"context"
	"errors"
	stdsync "sync"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/provider/memsp"
	"gondi/internal/retry"
	"gondi/internal/sync"
)

// flaky is the per-space kill-switch state.
type flaky struct {
	openDown atomic.Bool // fail OpenURL with a transport error
	opDown   atomic.Bool // fail every operation with a transport error
}

var (
	flakyMu     stdsync.Mutex
	flakySpaces = map[string]*flaky{}
)

func flakySpace(name string) *flaky {
	flakyMu.Lock()
	defer flakyMu.Unlock()
	f, ok := flakySpaces[name]
	if !ok {
		f = &flaky{}
		flakySpaces[name] = f
	}
	return f
}

func commErr(space string) error {
	return &core.CommunicationError{Endpoint: "flk://" + space, Err: errors.New("flk: injected outage")}
}

// failCtx wraps a memsp context; when the space's opDown switch is on,
// every operation fails as the wire would.
type failCtx struct {
	core.DirContext
	space string
	f     *flaky
}

func (c *failCtx) err() error {
	if c.f.opDown.Load() {
		return commErr(c.space)
	}
	return nil
}

func (c *failCtx) Lookup(ctx context.Context, name string) (any, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	return c.DirContext.Lookup(ctx, name)
}

func (c *failCtx) List(ctx context.Context, name string) ([]core.NameClassPair, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	return c.DirContext.List(ctx, name)
}

func (c *failCtx) ListBindings(ctx context.Context, name string) ([]core.Binding, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	return c.DirContext.ListBindings(ctx, name)
}

func (c *failCtx) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	return c.DirContext.GetAttributes(ctx, name, attrIDs...)
}

func (c *failCtx) Search(ctx context.Context, name, filter string, controls *core.SearchControls) ([]core.SearchResult, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	return c.DirContext.Search(ctx, name, filter, controls)
}

func (c *failCtx) Bind(ctx context.Context, name string, obj any) error {
	if err := c.err(); err != nil {
		return err
	}
	return c.DirContext.Bind(ctx, name, obj)
}

func (c *failCtx) Rebind(ctx context.Context, name string, obj any) error {
	if err := c.err(); err != nil {
		return err
	}
	return c.DirContext.Rebind(ctx, name, obj)
}

func (c *failCtx) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	if err := c.err(); err != nil {
		return err
	}
	return c.DirContext.RebindAttrs(ctx, name, obj, attrs)
}

func (c *failCtx) Unbind(ctx context.Context, name string) error {
	if err := c.err(); err != nil {
		return err
	}
	return c.DirContext.Unbind(ctx, name)
}

func (c *failCtx) CreateSubcontext(ctx context.Context, name string) (core.Context, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	return c.DirContext.CreateSubcontext(ctx, name)
}

func (c *failCtx) CreateSubcontextAttrs(ctx context.Context, name string, attrs *core.Attributes) (core.DirContext, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	return c.DirContext.CreateSubcontextAttrs(ctx, name, attrs)
}

func (c *failCtx) DestroySubcontext(ctx context.Context, name string) error {
	if err := c.err(); err != nil {
		return err
	}
	return c.DirContext.DestroySubcontext(ctx, name)
}

func (c *failCtx) Watch(ctx context.Context, target string, scope core.SearchScope, l core.Listener) (func(), error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	ec, ok := c.DirContext.(core.EventContext)
	if !ok {
		return nil, core.Errf("watch", target, core.ErrNotSupported)
	}
	return ec.Watch(ctx, target, scope, l)
}

func registerTestProviders() {
	memsp.Register()
	sync.Register()
	core.RegisterProvider("flk", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		f := flakySpace(u.Authority)
		if f.openDown.Load() {
			return nil, core.Name{}, commErr(u.Authority)
		}
		inner := memsp.NewContext(memsp.Space("flk-"+u.Authority), env, rawURL)
		return &failCtx{DirContext: inner, space: u.Authority, f: f}, u.Path, nil
	}))
}

// backdoor returns a direct handle on a flk space's tree, bypassing the
// kill switches.
func backdoor(space string) core.DirContext {
	return memsp.NewContext(memsp.Space("flk-"+space), map[string]any{}, "mem://flk-"+space)
}

func testRetry() retry.Policy {
	return retry.Policy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// startMirror seeds the source space, starts a mirror over it, and
// waits for convergence of the seeded names.
func startMirror(t *testing.T, space string, seed map[string]string) *sync.Mirror {
	t.Helper()
	ctx := context.Background()
	bd := backdoor(space)
	if _, err := bd.CreateSubcontext(ctx, "data"); err != nil && !errors.Is(err, core.ErrAlreadyBound) {
		t.Fatal(err)
	}
	for rel, val := range seed {
		if err := bd.Rebind(ctx, "data/"+rel, val); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sync.New(ctx, sync.Config{
		Name:      t.Name(),
		SourceURL: "flk://" + space + "/data",
		DestURL:   "mem://" + space + "-mirror/m",
		Interval:  25 * time.Millisecond,
		Retry:     testRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Stop(); memsp.ResetSpaces() })

	verify, base, err := core.OpenURL(ctx, "mem://"+space+"-mirror/m", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	deadline := time.Now().Add(10 * time.Second)
	for rel := range seed {
		name := base.Concat(core.MustParseName(rel)).String()
		for {
			if _, err := verify.Lookup(ctx, name); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mirror never converged on %s: %+v", rel, m.Status())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return m
}

func TestFallbackServesReadsThroughOriginOutage(t *testing.T) {
	registerTestProviders()
	space := "outage-a"
	m := startMirror(t, space, map[string]string{"svc0": "v0", "svc1": "v1"})

	ctx := context.Background()
	ic, err := core.Open(ctx, core.WithMirrorFallback())
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()

	url := "flk://" + space + "/data/svc0"
	if v, err := ic.Lookup(ctx, url); err != nil || v != "v0" {
		t.Fatalf("healthy lookup = %v, %v", v, err)
	}

	// Operations fail while the open still succeeds: the fbCtx wrapper's
	// per-read divert path.
	f := flakySpace(space)
	f.opDown.Store(true)
	t.Cleanup(func() { f.opDown.Store(false); f.openDown.Store(false) })
	if v, err := ic.Lookup(ctx, url); err != nil || v != "v0" {
		t.Fatalf("mirror-served lookup (op outage) = %v, %v", v, err)
	}

	// Opens fail too: the mirrorRoot divert path.
	f.openDown.Store(true)
	if v, err := ic.Lookup(ctx, url); err != nil || v != "v0" {
		t.Fatalf("mirror-served lookup (open outage) = %v, %v", v, err)
	}
	// List through the mirror.
	if pairs, err := ic.List(ctx, "flk://"+space+"/data"); err != nil || len(pairs) != 2 {
		t.Fatalf("mirror-served list = %v, %v", pairs, err)
	}
	// The mirror never silently absorbs a miss: an uncovered name under
	// the same authority fails with the origin's typed error.
	var comm *core.CommunicationError
	if _, err := ic.Lookup(ctx, "flk://"+space+"/elsewhere/x"); !errors.As(err, &comm) {
		t.Fatalf("uncovered name during outage: %v, want *core.CommunicationError", err)
	}
	// A name the mirror covers but the source never held is a legitimate
	// NotFound from the replica.
	if _, err := ic.Lookup(ctx, "flk://"+space+"/data/ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("covered-but-absent name: %v, want ErrNotFound", err)
	}
	// Every mirror answer was counted — degradation is never silent.
	if s := m.Status(); s.Serves == 0 {
		t.Fatalf("mirror served reads without counting them: %+v", s)
	}

	// Writes never divert: the mirror is read-only degradation.
	if err := ic.Bind(ctx, "flk://"+space+"/data/new", "x"); !errors.As(err, &comm) {
		t.Fatalf("write during outage = %v, want the origin's *core.CommunicationError", err)
	}
	// And the replica did not absorb the write.
	if _, err := ic.Lookup(ctx, "flk://"+space+"/data/new"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("diverted write reached the mirror: %v", err)
	}
}

func TestFallbackServesBatchLookupPerItem(t *testing.T) {
	// The fallback wrappers are deliberately not BatchContexts: a batch
	// must reach them one item at a time, so every item can divert to the
	// mirror on its own instead of failing with the origin's error.
	registerTestProviders()
	space := "outage-batch"
	startMirror(t, space, map[string]string{"svc0": "v0", "svc1": "v1"})

	ctx := context.Background()
	ic, err := core.Open(ctx, core.WithMirrorFallback())
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	names := []string{"flk://" + space + "/data/svc0", "flk://" + space + "/data/svc1"}
	check := func(when string) {
		t.Helper()
		out, err := ic.LookupMany(ctx, names)
		if err != nil || len(out) != 2 {
			t.Fatalf("%s: LookupMany = %+v, %v", when, out, err)
		}
		for i, want := range []string{"v0", "v1"} {
			if out[i].Err != nil || out[i].Value != want {
				t.Errorf("%s: item %d = %v, %v; want %q", when, i, out[i].Value, out[i].Err, want)
			}
		}
	}
	check("healthy")
	f := flakySpace(space)
	t.Cleanup(func() { f.opDown.Store(false); f.openDown.Store(false) })
	f.opDown.Store(true)
	check("origin ops down")
	f.openDown.Store(true)
	check("origin opens down")
}

func TestFallbackStaysTypedWhenMirrorAlsoDown(t *testing.T) {
	registerTestProviders()
	space := "outage-b"
	// The mirror's destination lives on its own flaky space, so both
	// sides of the degradation can be severed.
	ctx := context.Background()
	bd := backdoor(space)
	if _, err := bd.CreateSubcontext(ctx, "data"); err != nil {
		t.Fatal(err)
	}
	if err := bd.Rebind(ctx, "data/svc", "v"); err != nil {
		t.Fatal(err)
	}
	m, err := sync.New(ctx, sync.Config{
		Name:      t.Name(),
		SourceURL: "flk://" + space + "/data",
		DestURL:   "flk://" + space + "-dst/m",
		Interval:  25 * time.Millisecond,
		Retry:     testRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Stop(); memsp.ResetSpaces() })

	ic, err := core.Open(ctx, core.WithMirrorFallback())
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	url := "flk://" + space + "/data/svc"
	// Converge on the destination itself (a fallback read would be
	// satisfied by the still-healthy origin and prove nothing).
	dstTree := backdoor(space + "-dst")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := dstTree.Lookup(ctx, "m/svc"); v == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror never converged: %+v", m.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}

	src, dst := flakySpace(space), flakySpace(space+"-dst")
	src.opDown.Store(true)
	t.Cleanup(func() { src.opDown.Store(false); dst.opDown.Store(false) })

	// Origin down, mirror up: served.
	if v, err := ic.Lookup(ctx, url); err != nil || v != "v" {
		t.Fatalf("mirror-served lookup = %v, %v", v, err)
	}

	// Both down: the caller gets the ORIGIN's typed transport error —
	// not the mirror's, not a nil, not a hang.
	dst.opDown.Store(true)
	var comm *core.CommunicationError
	_, err = ic.Lookup(ctx, url)
	if !errors.As(err, &comm) {
		t.Fatalf("both-down lookup = %v, want *core.CommunicationError", err)
	}
	if comm.Endpoint != "flk://"+space {
		t.Fatalf("both-down error names %q, want the origin %q", comm.Endpoint, "flk://"+space)
	}
}

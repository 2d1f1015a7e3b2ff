package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/provider/memsp"
)

// fakeCtx is an in-package event-capable DirContext with call counting.
type fakeCtx struct {
	mu         sync.Mutex
	bound      map[string]any
	attrs      map[string]*core.Attributes
	lookups    int
	lists      int
	getAttrs   int
	searches   int
	listeners  map[int]core.Listener
	listenSeq  int
	watchErr   error
	lookupGate chan struct{} // when non-nil, Lookup blocks on it
	closed     bool
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{
		bound:     map[string]any{},
		attrs:     map[string]*core.Attributes{},
		listeners: map[int]core.Listener{},
	}
}

func (f *fakeCtx) lookupCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lookups
}

func (f *fakeCtx) fire(ev core.NamingEvent) {
	f.mu.Lock()
	ls := make([]core.Listener, 0, len(f.listeners))
	for _, l := range f.listeners {
		ls = append(ls, l)
	}
	f.mu.Unlock()
	for _, l := range ls {
		l(ev)
	}
}

// breakWatch drops every registered listener (after telling them), and
// optionally makes future Watch calls fail.
func (f *fakeCtx) breakWatch(futureErr error) {
	f.mu.Lock()
	ls := make([]core.Listener, 0, len(f.listeners))
	for _, l := range f.listeners {
		ls = append(ls, l)
	}
	f.listeners = map[int]core.Listener{}
	f.watchErr = futureErr
	f.mu.Unlock()
	for _, l := range ls {
		l(core.NamingEvent{Type: core.EventWatchLost})
	}
}

func (f *fakeCtx) allowWatch() {
	f.mu.Lock()
	f.watchErr = nil
	f.mu.Unlock()
}

func (f *fakeCtx) Lookup(_ context.Context, name string) (any, error) {
	f.mu.Lock()
	f.lookups++
	gate := f.lookupGate
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if obj, ok := f.bound[name]; ok {
		return obj, nil
	}
	return nil, core.Errf("lookup", name, core.ErrNotFound)
}

func (f *fakeCtx) Bind(_ context.Context, name string, obj any) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.bound[name]; ok {
		return core.Errf("bind", name, core.ErrAlreadyBound)
	}
	f.bound[name] = obj
	return nil
}

func (f *fakeCtx) Rebind(_ context.Context, name string, obj any) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bound[name] = obj
	return nil
}

func (f *fakeCtx) Unbind(_ context.Context, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.bound, name)
	return nil
}

func (f *fakeCtx) Rename(_ context.Context, oldName, newName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bound[newName] = f.bound[oldName]
	delete(f.bound, oldName)
	return nil
}

func (f *fakeCtx) List(_ context.Context, name string) ([]core.NameClassPair, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lists++
	var out []core.NameClassPair
	for k := range f.bound {
		out = append(out, core.NameClassPair{Name: k, Class: "any"})
	}
	return out, nil
}

func (f *fakeCtx) ListBindings(_ context.Context, name string) ([]core.Binding, error) {
	return nil, nil
}

func (f *fakeCtx) CreateSubcontext(_ context.Context, name string) (core.Context, error) {
	return f, nil
}

func (f *fakeCtx) DestroySubcontext(_ context.Context, name string) error { return nil }

func (f *fakeCtx) LookupLink(ctx context.Context, name string) (any, error) {
	return f.Lookup(ctx, name)
}

func (f *fakeCtx) BindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	if err := f.Bind(ctx, name, obj); err != nil {
		return err
	}
	f.mu.Lock()
	f.attrs[name] = attrs.Clone()
	f.mu.Unlock()
	return nil
}

func (f *fakeCtx) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	if err := f.Rebind(ctx, name, obj); err != nil {
		return err
	}
	f.mu.Lock()
	if attrs != nil {
		f.attrs[name] = attrs.Clone()
	}
	f.mu.Unlock()
	return nil
}

func (f *fakeCtx) GetAttributes(_ context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.getAttrs++
	if a, ok := f.attrs[name]; ok {
		return a.Clone(), nil
	}
	return &core.Attributes{}, nil
}

func (f *fakeCtx) ModifyAttributes(_ context.Context, _ string, _ []core.AttributeMod) error {
	return core.ErrNotSupported
}

func (f *fakeCtx) Search(_ context.Context, _, _ string, _ *core.SearchControls) ([]core.SearchResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.searches++
	return []core.SearchResult{{Name: "hit"}}, nil
}

func (f *fakeCtx) CreateSubcontextAttrs(_ context.Context, _ string, _ *core.Attributes) (core.DirContext, error) {
	return f, nil
}

func (f *fakeCtx) NameInNamespace() (string, error) { return "", nil }
func (f *fakeCtx) Environment() map[string]any      { return nil }

func (f *fakeCtx) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *fakeCtx) Watch(_ context.Context, target string, scope core.SearchScope, l core.Listener) (func(), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.watchErr != nil {
		return nil, f.watchErr
	}
	f.listenSeq++
	id := f.listenSeq
	f.listeners[id] = l
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.listeners, id)
	}, nil
}

var _ core.DirContext = (*fakeCtx)(nil)
var _ core.EventContext = (*fakeCtx)(nil)

func TestReadThroughHit(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	c := New(Config{}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		v, err := w.Lookup(ctx, "svc")
		if err != nil || v != "v1" {
			t.Fatalf("lookup %d: %v %v", i, v, err)
		}
	}
	if got := f.lookupCount(); got != 1 {
		t.Errorf("provider lookups = %d, want 1", got)
	}
	if s := c.Stats(); s.Hits != 4 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 4 hits / 1 miss", s)
	}
}

func TestViewsShareEntryTable(t *testing.T) {
	f := newFakeCtx()
	f.bound["a/b/c"] = "deep"
	c := New(Config{}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	if _, err := w.Lookup(ctx, "a/b/c"); err != nil {
		t.Fatal(err)
	}
	sub, err := core.ParseName("a/b")
	if err != nil {
		t.Fatal(err)
	}
	view := w.View(sub).(*CachedContext)
	if v, err := view.Lookup(ctx, "c"); err != nil || v != "deep" {
		t.Fatalf("view lookup: %v %v", v, err)
	}
	if got := f.lookupCount(); got != 1 {
		t.Errorf("provider lookups = %d, want 1 (view must hit the shared table)", got)
	}
}

func TestNegativeCaching(t *testing.T) {
	f := newFakeCtx()
	c := New(Config{}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := w.Lookup(ctx, "ghost"); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
	}
	if got := f.lookupCount(); got != 1 {
		t.Errorf("provider lookups = %d, want 1 (negative cached)", got)
	}
	if s := c.Stats(); s.NegativeHits != 2 {
		t.Errorf("negative hits = %d, want 2", s.NegativeHits)
	}

	// A successful Bind through the wrapper must evict the negative entry.
	if err := w.Bind(ctx, "ghost", "now-real"); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Lookup(ctx, "ghost"); err != nil || v != "now-real" {
		t.Fatalf("post-bind lookup: %v %v", v, err)
	}
}

func TestNegativeCachingDisabled(t *testing.T) {
	f := newFakeCtx()
	c := New(Config{DisableNegative: true}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := w.Lookup(ctx, "ghost"); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
	}
	if got := f.lookupCount(); got != 3 {
		t.Errorf("provider lookups = %d, want 3 (negative caching off)", got)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	gate := make(chan struct{})
	f.lookupGate = gate
	c := New(Config{}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	const workers = 8
	var wg sync.WaitGroup
	var bad atomic.Int64
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if v, err := w.Lookup(ctx, "svc"); err != nil || v != "v1" {
				bad.Add(1)
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the herd pile onto the in-flight fill
	close(gate)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d workers failed", bad.Load())
	}
	if got := f.lookupCount(); got != 1 {
		t.Errorf("provider lookups = %d, want 1 (herd collapsed)", got)
	}
	if s := c.Stats(); s.Collapsed != workers-1 {
		t.Errorf("collapsed = %d, want %d", s.Collapsed, workers-1)
	}
}

func TestLRUBound(t *testing.T) {
	f := newFakeCtx()
	for i := 0; i < 4; i++ {
		f.bound[fmt.Sprintf("n%d", i)] = i
	}
	c := New(Config{MaxEntries: 2}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		if _, err := w.Lookup(ctx, fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", s.Evictions)
	}
	// n0 was evicted: a re-read must miss.
	before := f.lookupCount()
	if _, err := w.Lookup(ctx, "n0"); err != nil {
		t.Fatal(err)
	}
	if f.lookupCount() != before+1 {
		t.Error("expected provider re-read after LRU eviction")
	}
}

func TestTTLExpiry(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	c := New(Config{TTL: 30 * time.Millisecond, DisableEvents: true}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if got := f.lookupCount(); got != 1 {
		t.Fatalf("provider lookups = %d, want 1 before expiry", got)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if got := f.lookupCount(); got != 2 {
		t.Errorf("provider lookups = %d, want 2 after TTL expiry", got)
	}
	if s := c.Stats(); s.Expirations != 1 {
		t.Errorf("expirations = %d, want 1", s.Expirations)
	}
}

// ttlAdvised wraps fakeCtx with a per-name TTL advice.
type ttlAdvised struct {
	*fakeCtx
	ttl time.Duration
}

func (a *ttlAdvised) AdviseTTL(string) (time.Duration, bool) { return a.ttl, true }

func TestTTLAdvisorOverridesDefault(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	adv := &ttlAdvised{fakeCtx: f, ttl: 25 * time.Millisecond}
	// Default TTL is 30s; the advisor must shorten it.
	c := New(Config{DisableEvents: true}, nil)
	defer c.Close()
	w := c.Wrap(adv)
	ctx := context.Background()

	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if got := f.lookupCount(); got != 2 {
		t.Errorf("provider lookups = %d, want 2 (advised TTL expired)", got)
	}
}

func TestEventInvalidation(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	c := New(Config{TTL: time.Hour}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	// Out-of-band change plus the provider's event.
	f.mu.Lock()
	f.bound["svc"] = "v2"
	f.mu.Unlock()
	f.fire(core.NamingEvent{Type: core.EventObjectChanged, Name: "svc"})

	v, err := w.Lookup(ctx, "svc")
	if err != nil || v != "v2" {
		t.Fatalf("post-event lookup = %v %v, want v2", v, err)
	}
}

func TestEventInvalidationIsHierarchical(t *testing.T) {
	f := newFakeCtx()
	f.bound["a/b"] = "v1"
	c := New(Config{TTL: time.Hour}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	if _, err := w.Lookup(ctx, "a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.List(ctx, ""); err != nil {
		t.Fatal(err)
	}
	// An event under "a" must drop both the deep entry and the root List.
	f.fire(core.NamingEvent{Type: core.EventObjectAdded, Name: "a/b/c"})
	before := f.lookupCount()
	if _, err := w.Lookup(ctx, "a/b"); err != nil {
		t.Fatal(err)
	}
	if f.lookupCount() != before+1 {
		t.Error("descendant event must evict ancestor-path entries")
	}
}

func TestWatchLossDegradesToTTLAndRecovers(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	c := New(Config{TTL: 40 * time.Millisecond}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	// Kill the watch; keep re-registration failing for now.
	f.breakWatch(errors.New("watch transport down"))
	if s := c.Stats(); s.WatchLosses != 1 {
		t.Fatalf("watch losses = %d, want 1", s.WatchLosses)
	}

	// Degraded mode: entries now live only TTL-long.
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	after := f.lookupCount()
	time.Sleep(80 * time.Millisecond)
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if f.lookupCount() != after+1 {
		t.Error("entry outlived the TTL while degraded")
	}

	// Let re-registration succeed; the backoff loop must reconnect.
	f.allowWatch()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Rewatches >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.Stats().Rewatches < 1 {
		t.Fatal("watch never re-registered")
	}
	// Back in event mode: entries survive past the TTL again.
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	before := f.lookupCount()
	time.Sleep(80 * time.Millisecond)
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if f.lookupCount() != before {
		t.Error("entry expired by TTL even though event mode is restored")
	}
}

func TestWriteInvalidatesThroughWrapper(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	c := New(Config{TTL: time.Hour, DisableEvents: true}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	if err := w.Rebind(ctx, "svc", "v2"); err != nil {
		t.Fatal(err)
	}
	v, err := w.Lookup(ctx, "svc")
	if err != nil || v != "v2" {
		t.Fatalf("post-rebind lookup = %v %v, want v2", v, err)
	}
}

func TestGetAttributesAndSearchCached(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	f.attrs["svc"] = core.NewAttributes("kind", "test")
	c := New(Config{}, nil)
	defer c.Close()
	w := c.Wrap(f)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		a, err := w.GetAttributes(ctx, "svc")
		if err != nil || a.GetFirst("kind") != "test" {
			t.Fatalf("getAttributes: %v %v", a, err)
		}
		// Mutating the returned copy must not poison the cache.
		a.Put("kind", "mutated")
	}
	f.mu.Lock()
	ga := f.getAttrs
	f.mu.Unlock()
	if ga != 1 {
		t.Errorf("provider GetAttributes calls = %d, want 1", ga)
	}

	for i := 0; i < 3; i++ {
		rs, err := w.Search(ctx, "", "(kind=test)", &core.SearchControls{Scope: core.ScopeSubtree})
		if err != nil || len(rs) != 1 {
			t.Fatalf("search: %v %v", rs, err)
		}
	}
	f.mu.Lock()
	sc := f.searches
	f.mu.Unlock()
	if sc != 1 {
		t.Errorf("provider Search calls = %d, want 1", sc)
	}
}

func TestCPECachingInertOnly(t *testing.T) {
	cpeString := &core.CannotProceedError{Resolved: "hdns://next/host"}
	var calls atomic.Int64
	c := New(Config{}, nil)
	defer c.Close()
	r := c.Wrap(newFakeCtx()).r

	n, _ := core.ParseName("x")
	fill := func(core.Context) (any, error) {
		calls.Add(1)
		return nil, cpeString
	}
	for i := 0; i < 3; i++ {
		_, err := r.cachedOp(context.Background(), "k1", n, fill)
		var got *core.CannotProceedError
		if !errors.As(err, &got) {
			t.Fatalf("want CPE, got %v", err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("string-resolved CPE fills = %d, want 1 (cacheable)", calls.Load())
	}

	// A CPE carrying a live Context must never be cached.
	cpeLive := &core.CannotProceedError{Resolved: newFakeCtx()}
	var liveCalls atomic.Int64
	liveFill := func(core.Context) (any, error) {
		liveCalls.Add(1)
		return nil, cpeLive
	}
	for i := 0; i < 3; i++ {
		_, _ = r.cachedOp(context.Background(), "k2", n, liveFill)
	}
	if liveCalls.Load() != 3 {
		t.Errorf("live-resolved CPE fills = %d, want 3 (uncacheable)", liveCalls.Load())
	}
}

func TestOpenURLMemoizesRoots(t *testing.T) {
	var dials atomic.Int64
	f := newFakeCtx()
	f.bound["a"] = 1
	f.bound["b"] = 2
	core.RegisterProvider("cachetest", core.ProviderFunc(
		func(_ context.Context, rawURL string, _ map[string]any) (core.Context, core.Name, error) {
			dials.Add(1)
			u, err := core.ParseURLName(rawURL)
			if err != nil {
				return nil, core.Name{}, err
			}
			return f, u.Path, nil
		}))

	c := New(Config{}, nil)
	ctx := context.Background()
	ic, err := core.Open(ctx, core.WithMiddleware(c))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()

	for _, name := range []string{"cachetest://h1/a", "cachetest://h1/b", "cachetest://h1/a"} {
		if _, err := ic.Lookup(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if dials.Load() != 1 {
		t.Errorf("dials = %d, want 1", dials.Load())
	}
	if got := f.lookupCount(); got != 2 {
		t.Errorf("provider lookups = %d, want 2 (same authority must share one root)", got)
	}
	if _, err := ic.Lookup(ctx, "cachetest://h2/a"); err != nil {
		t.Fatal(err)
	}
	if dials.Load() != 2 {
		t.Errorf("dials = %d, want 2 (distinct authority)", dials.Load())
	}
}

func TestCloseStopsEverything(t *testing.T) {
	f := newFakeCtx()
	f.bound["svc"] = "v1"
	c := New(Config{}, nil)
	w := c.Wrap(f)
	if _, err := w.Lookup(context.Background(), "svc"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	closed, listeners := f.closed, len(f.listeners)
	f.mu.Unlock()
	if !closed {
		t.Error("provider context not closed")
	}
	if listeners != 0 {
		t.Errorf("%d listeners still registered after Close", listeners)
	}
	if err := c.Close(); err != nil {
		t.Error("second Close must be a no-op:", err)
	}
}

func TestUnparseableNameGoesToProviderAsGiven(t *testing.T) {
	// A name the cache cannot key must reach the provider exactly as given
	// — and so fail there — never be rewritten to the root.
	ctx := context.Background()
	mem := memsp.NewContext(memsp.NewTree(), nil, "")
	if err := mem.Bind(ctx, "svc", "v1"); err != nil {
		t.Fatal(err)
	}
	c := New(Config{}, nil)
	defer c.Close()
	w := c.Wrap(mem)
	if _, err := w.Lookup(ctx, "svc"); err != nil {
		t.Fatal(err)
	}
	evictions := c.Stats().Evictions

	mods := []core.AttributeMod{{Op: core.ModReplace, Attr: core.Attribute{ID: "owner", Values: []string{"x"}}}}
	var ine *core.InvalidNameError
	if err := w.ModifyAttributes(ctx, `a\`, mods); !errors.As(err, &ine) {
		t.Fatalf("ModifyAttributes(%q) = %v, want *core.InvalidNameError", `a\`, err)
	}
	if err := w.BindAttrs(ctx, `a\`, "v", core.NewAttributes("owner", "x")); !errors.As(err, &ine) {
		t.Fatalf("BindAttrs(%q) = %v, want *core.InvalidNameError", `a\`, err)
	}
	attrs, err := mem.GetAttributes(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := attrs.Get("owner"); ok {
		t.Errorf("the write landed on the root: %v", attrs)
	}
	if got := c.Stats().Evictions; got != evictions {
		t.Errorf("a refused write evicted %d entries", got-evictions)
	}
}

// A cached URL lookup through an InitialContext with no obs middleware
// costs what it did when the cache held its own roots: resolving the
// held root under the cache root adds nothing per operation.
func TestCachedLookupAllocs(t *testing.T) {
	const parent = 10
	memsp.Register()
	Register()
	ctx := context.Background()
	ic, err := core.Open(ctx, core.WithCache(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	const name = "mem://cached-lookup-allocs/k"
	if err := ic.Rebind(ctx, name, "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Lookup(ctx, name); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := ic.Lookup(ctx, name); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parent {
		t.Fatalf("cached Lookup allocates %v times, want <= %d", allocs, parent)
	}
	t.Logf("cached Lookup: %v allocations", allocs)
}

// liveFake is a fakeCtx that can report itself dead (core.Liveness), so
// the InitialContext holding it opens its root again.
type liveFake struct {
	*fakeCtx
	dead atomic.Bool
}

func (l *liveFake) Dead() bool { return l.dead.Load() }

func (l *liveFake) watches() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.listeners)
}

// reopening registers scheme as a provider that opens a new liveFake per
// open, binding "k" to the open's ordinal; openErr, when set, fails opens.
type reopening struct {
	mu      sync.Mutex
	roots   []*liveFake
	openErr error
}

func registerReopening(scheme string) *reopening {
	p := &reopening{}
	core.RegisterProvider(scheme, core.ProviderFunc(
		func(_ context.Context, rawURL string, _ map[string]any) (core.Context, core.Name, error) {
			u, err := core.ParseURLName(rawURL)
			if err != nil {
				return nil, core.Name{}, err
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.openErr != nil {
				return nil, core.Name{}, p.openErr
			}
			l := &liveFake{fakeCtx: newFakeCtx()}
			p.roots = append(p.roots, l)
			l.bound["k"] = len(p.roots)
			return l, u.Path, nil
		}))
	return p
}

func (p *reopening) last() *liveFake {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.roots[len(p.roots)-1]
}

// When the InitialContext opens a dead root again, the cache root moves
// to the new root: what the old one answered is dropped and the watch
// moves with it. Concurrent lookups meanwhile all succeed.
func TestReopenedRootMovesEntriesAndWatch(t *testing.T) {
	p := registerReopening("cachereopen")
	c := New(Config{TTL: time.Hour}, nil)
	ctx := context.Background()
	ic, err := core.Open(ctx, core.WithMiddleware(c))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	const name = "cachereopen://h/k"
	lookup := func() any {
		t.Helper()
		v, err := ic.Lookup(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	v := lookup()
	first := p.last()
	if w := lookup(); v != 1 || w != 1 || first.lookupCount() != 1 {
		t.Fatalf("lookups = %v, %v with %d provider calls, want 1, 1 with 1", v, w, first.lookupCount())
	}
	first.dead.Store(true)
	if v := lookup(); v != 2 {
		t.Fatalf("after the root died: lookup = %v, want 2 (from the reopened root)", v)
	}
	if n, m := first.watches(), p.last().watches(); n != 0 || m != 1 {
		t.Fatalf("watches on the dead and the reopened root = %d, %d, want 0, 1", n, m)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := ic.Lookup(ctx, name); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		p.last().dead.Store(true)
		if _, err := ic.Lookup(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	lookup() // settle on the last root
	p.mu.Lock()
	roots := p.roots
	p.mu.Unlock()
	for i, r := range roots[:len(roots)-1] {
		if n := r.watches(); n != 0 {
			t.Errorf("dead root %d keeps %d watches", i+1, n)
		}
	}
	if n := roots[len(roots)-1].watches(); n != 1 {
		t.Errorf("live root has %d watches, want 1", n)
	}
}

// While the InitialContext cannot open a root again, the cache answers
// what it holds when the backend does not answer, and nothing else: a
// name it does not hold fails with the open's error, and so does every
// name when the open fails for another reason.
func TestUnopenableRootAnswersOnlyWhatItHolds(t *testing.T) {
	p := registerReopening("cacheunopened")
	c := New(Config{TTL: time.Hour, DisableEvents: true}, nil)
	ctx := context.Background()
	ic, err := core.Open(ctx, core.WithMiddleware(c))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	if v, err := ic.Lookup(ctx, "cacheunopened://h/k"); err != nil || v != 1 {
		t.Fatalf("lookup = %v, %v", v, err)
	}

	p.mu.Lock()
	p.openErr = transportErr()
	p.mu.Unlock()
	p.last().dead.Store(true)
	if v, err := ic.Lookup(ctx, "cacheunopened://h/k"); err != nil || v != 1 {
		t.Errorf("held name with the root unopenable = %v, %v, want 1", v, err)
	}
	var ce *core.CommunicationError
	if _, err := ic.Lookup(ctx, "cacheunopened://h/other"); !errors.As(err, &ce) {
		t.Errorf("name not held with the root unopenable: %v, want the open's CommunicationError", err)
	}
	if err := ic.Bind(ctx, "cacheunopened://h/new", 1); !errors.As(err, &ce) {
		t.Errorf("bind with the root unopenable: %v, want the open's CommunicationError", err)
	}

	semantic := errors.New("refused")
	p.mu.Lock()
	p.openErr = semantic
	p.mu.Unlock()
	if _, err := ic.Lookup(ctx, "cacheunopened://h/k"); !errors.Is(err, semantic) {
		t.Errorf("held name when the open is refused: %v, want the open's error", err)
	}
}

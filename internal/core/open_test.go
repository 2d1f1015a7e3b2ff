package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubCtx is a minimal in-package DirContext for initial-context tests.
type stubCtx struct {
	mu       sync.Mutex
	bound    map[string]any
	lastName string
	lastObj  any
	lastAttr *Attributes
	closed   bool
}

func newStubCtx() *stubCtx { return &stubCtx{bound: map[string]any{}} }

func (s *stubCtx) Lookup(_ context.Context, name string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.bound[name]; ok {
		return obj, nil
	}
	return nil, Errf("lookup", name, ErrNotFound)
}

func (s *stubCtx) Bind(ctx context.Context, name string, obj any) error {
	return s.BindAttrs(ctx, name, obj, nil)
}

func (s *stubCtx) BindAttrs(_ context.Context, name string, obj any, attrs *Attributes) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bound[name]; ok {
		return Errf("bind", name, ErrAlreadyBound)
	}
	s.bound[name] = obj
	s.lastName, s.lastObj, s.lastAttr = name, obj, attrs
	return nil
}

func (s *stubCtx) Rebind(ctx context.Context, name string, obj any) error {
	return s.RebindAttrs(ctx, name, obj, nil)
}

func (s *stubCtx) RebindAttrs(_ context.Context, name string, obj any, attrs *Attributes) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bound[name] = obj
	s.lastName, s.lastObj, s.lastAttr = name, obj, attrs
	return nil
}

func (s *stubCtx) Unbind(_ context.Context, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.bound, name)
	return nil
}

func (s *stubCtx) Rename(_ context.Context, oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bound[newName] = s.bound[oldName]
	delete(s.bound, oldName)
	return nil
}

func (s *stubCtx) List(_ context.Context, _ string) ([]NameClassPair, error) { return nil, nil }
func (s *stubCtx) ListBindings(_ context.Context, _ string) ([]Binding, error) {
	return nil, nil
}
func (s *stubCtx) CreateSubcontext(_ context.Context, _ string) (Context, error) {
	return nil, ErrNotSupported
}
func (s *stubCtx) CreateSubcontextAttrs(_ context.Context, _ string, _ *Attributes) (DirContext, error) {
	return nil, ErrNotSupported
}
func (s *stubCtx) DestroySubcontext(_ context.Context, _ string) error { return ErrNotSupported }
func (s *stubCtx) LookupLink(ctx context.Context, name string) (any, error) {
	return s.Lookup(ctx, name)
}
func (s *stubCtx) GetAttributes(_ context.Context, _ string, _ ...string) (*Attributes, error) {
	return &Attributes{}, nil
}
func (s *stubCtx) ModifyAttributes(_ context.Context, _ string, _ []AttributeMod) error {
	return ErrNotSupported
}
func (s *stubCtx) Search(_ context.Context, _, _ string, _ *SearchControls) ([]SearchResult, error) {
	return nil, nil
}
func (s *stubCtx) NameInNamespace() (string, error) { return "", nil }
func (s *stubCtx) Environment() map[string]any      { return nil }
func (s *stubCtx) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func TestOpenBuildsTypedEnvironment(t *testing.T) {
	ic, err := Open(context.Background(),
		WithProviderURL("stub://here"),
		WithPrincipal("alice", "s3cret"),
		WithPoolID("p1"),
		WithEnv("jini.bind", "relaxed"),
	)
	if err != nil {
		t.Fatal(err)
	}
	env := ic.Environment()
	want := map[string]any{
		EnvProviderURL: "stub://here",
		EnvPrincipal:   "alice",
		EnvCredentials: "s3cret",
		EnvPoolID:      "p1",
		"jini.bind":    "relaxed",
	}
	for k, v := range want {
		if env[k] != v {
			t.Errorf("env[%q] = %v, want %v", k, env[k], v)
		}
	}
}

func TestOpenWithCacheRequiresRegistration(t *testing.T) {
	RegisterCacheFactory(nil)
	_, err := Open(context.Background(), WithCache(CacheConfig{}))
	if err == nil || !strings.Contains(err.Error(), "cache.Register") {
		t.Fatalf("want registration error, got %v", err)
	}
}

// recordingMW is a Middleware that wraps nothing but records traffic.
type recordingMW struct {
	opens  atomic.Int64
	closed atomic.Bool
}

func (m *recordingMW) OpenURLNext(ctx context.Context, rawURL string, env map[string]any, next OpenURLFunc) (Context, Name, error) {
	m.opens.Add(1)
	return next(ctx, rawURL, env)
}
func (m *recordingMW) Close() error { m.closed.Store(true); return nil }

func TestOpenWithCacheRoutesResolution(t *testing.T) {
	resetSPIForTest()
	defer resetSPIForTest()
	defer RegisterCacheFactory(nil)

	stub := newStubCtx()
	stub.bound["a"] = 1
	registerStub(stub)

	mw := &recordingMW{}
	RegisterCacheFactory(func(cfg CacheConfig, env map[string]any) Middleware { return mw })

	ic, err := Open(context.Background(), WithProviderURL("stub://host"), WithCache(CacheConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Lookup(context.Background(), "stub://host/a"); err != nil {
		t.Fatal(err)
	}
	if got := mw.opens.Load(); got != 1 {
		t.Errorf("middleware OpenURLNext calls = %d, want 1", got)
	}
	// A plain name resolves at the provider URL's held root, through the
	// same chain.
	if _, err := ic.Lookup(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if got := mw.opens.Load(); got != 2 {
		t.Errorf("middleware OpenURLNext calls = %d, want 2", got)
	}
	if err := ic.Close(); err != nil {
		t.Fatal(err)
	}
	if !mw.closed.Load() {
		t.Error("Close did not reach the middleware")
	}
}

// registerStub installs the "stub" provider, whose every root is stub.
func registerStub(stub *stubCtx) {
	RegisterProvider("stub", ProviderFunc(func(_ context.Context, rawURL string, _ map[string]any) (Context, Name, error) {
		u, err := ParseURLName(rawURL)
		if err != nil {
			return nil, Name{}, err
		}
		return stub, u.Path, nil
	}))
}

// TestDefaultContextConcurrentFirstUse: concurrent first uses of plain
// names open the provider URL's root once.
func TestDefaultContextConcurrentFirstUse(t *testing.T) {
	resetSPIForTest()
	defer resetSPIForTest()

	stub := newStubCtx()
	stub.bound["x"] = "v"
	var created atomic.Int64
	RegisterProvider("slow", ProviderFunc(func(_ context.Context, _ string, _ map[string]any) (Context, Name, error) {
		created.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the first-use window
		return stub, Name{}, nil
	}))

	ic, err := Open(context.Background(), WithProviderURL("slow://h"))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ic.Lookup(context.Background(), "x")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if got := created.Load(); got != 1 {
		t.Errorf("provider URL's root opened %d times, want 1", got)
	}
}

// TestPlainNameRetriesFailedOpen: the provider URL's root is a held root
// like any other. A failed open is not remembered, so the next plain name
// opens it again, and a root that reports itself dead is opened again.
func TestPlainNameRetriesFailedOpen(t *testing.T) {
	resetSPIForTest()
	defer resetSPIForTest()
	ctx := context.Background()

	down := errors.New("backend down")
	var opens atomic.Int32
	var last *countCtx
	RegisterProvider("flaky", ProviderFunc(func(_ context.Context, rawURL string, _ map[string]any) (Context, Name, error) {
		if opens.Add(1) == 1 {
			return nil, Name{}, down
		}
		u, err := ParseURLName(rawURL)
		if err != nil {
			return nil, Name{}, err
		}
		last = &countCtx{}
		last.Doer = last
		return last, u.Path, nil
	}))
	ic, err := Open(ctx, WithProviderURL("flaky://h/base"))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()

	if _, err := ic.Lookup(ctx, "x"); !errors.Is(err, down) {
		t.Fatalf("first lookup: %v, want the failed open", err)
	}
	// countCtx answers a lookup with the name it was asked.
	if v, err := ic.Lookup(ctx, "x"); err != nil || v != "base/x" {
		t.Fatalf("second lookup = %v, %v; want base/x", v, err)
	}
	if got := opens.Load(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}
	first := last
	first.dead.Store(true)
	if _, err := ic.Lookup(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if got := opens.Load(); got != 3 {
		t.Errorf("opens after the root died = %d, want 3", got)
	}
	if got := first.closes.Load(); got != 1 {
		t.Errorf("dead root closed %d times, want 1", got)
	}
}

// TestBindWithStateFactoryAttrs covers the bindOp merge when a state
// factory contributes attributes: with a nil caller attribute set (the
// former nil-receiver hazard) and with a caller set the factory's
// attributes must merge over.
func TestBindWithStateFactoryAttrs(t *testing.T) {
	resetSPIForTest()
	resetFactoriesForTest()
	defer resetSPIForTest()
	defer resetFactoriesForTest()

	stub := newStubCtx()
	registerStub(stub)
	RegisterStateFactory(func(obj any, _ Name, _ map[string]any) (any, *Attributes, error) {
		if s, ok := obj.(fakeObj); ok {
			return "wrapped:" + s.tag, NewAttributes("kind", "fake", "origin", "factory"), nil
		}
		return nil, nil, nil
	})
	ctx := context.Background()
	ic, err := Open(ctx, WithProviderURL("stub://h"))
	if err != nil {
		t.Fatal(err)
	}

	// Caller passes no attributes at all: factory attrs must still land.
	if err := ic.Bind(ctx, "plain", fakeObj{tag: "a"}); err != nil {
		t.Fatal(err)
	}
	if stub.lastObj != "wrapped:a" {
		t.Errorf("state = %v", stub.lastObj)
	}
	if stub.lastAttr.GetFirst("kind") != "fake" || stub.lastAttr.GetFirst("origin") != "factory" {
		t.Errorf("attrs = %v", stub.lastAttr)
	}

	// Caller attributes merge under the factory's (factory wins on clash).
	err = ic.BindAttrs(ctx, "both", fakeObj{tag: "b"},
		NewAttributes("origin", "caller", "color", "blue"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stub.lastAttr.GetFirst("origin"); got != "factory" {
		t.Errorf("origin = %q, want factory attrs merged over the caller's", got)
	}
	if got := stub.lastAttr.GetFirst("color"); got != "blue" {
		t.Errorf("color = %q, caller-only attrs must survive the merge", got)
	}
	if got := stub.lastAttr.GetFirst("kind"); got != "fake" {
		t.Errorf("kind = %q", got)
	}
}

// Guard: without WithMiddleware or WithCache nothing intercepts.
func TestNoMiddlewareByDefault(t *testing.T) {
	ic, err := Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ic.mws) != 0 || ic.openFn != nil {
		t.Fatal("Open with no options must not install middleware")
	}
	if _, err := ic.Lookup(context.Background(), "nope/x"); !errors.Is(err, ErrNoInitialContext) {
		t.Errorf("got %v", err)
	}
}

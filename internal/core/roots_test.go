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

// countingProvider opens countCtx roots and counts the opens per
// authority. Each root answers a lookup of "hop/..." with a continuation
// to count://b and of "ref" with a context reference to count://c.
type countingProvider struct {
	mu    sync.Mutex
	opens map[string]int
	roots map[string][]*countCtx
}

func (p *countingProvider) OpenURL(_ context.Context, rawURL string, _ map[string]any) (Context, Name, error) {
	u, err := ParseURLName(rawURL)
	if err != nil {
		return nil, Name{}, err
	}
	time.Sleep(time.Millisecond) // widen the window for concurrent first uses
	c := &countCtx{}
	c.Doer = c
	p.mu.Lock()
	p.opens[u.Authority]++
	p.roots[u.Authority] = append(p.roots[u.Authority], c)
	p.mu.Unlock()
	return c, u.Path, nil
}

func (p *countingProvider) count(authority string) (opens int, roots []*countCtx) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opens[authority], p.roots[authority]
}

type countCtx struct {
	OpContext
	dead   atomic.Bool
	closes atomic.Int32
}

func (c *countCtx) Do(_ context.Context, op Op) (Result, error) {
	switch {
	case op.Kind != OpLookup:
		return Result{}, ErrNotSupported
	case op.Name == "ref":
		return Result{Value: NewContextReference("count://c")}, nil
	case strings.HasPrefix(op.Name, "hop/"):
		return Result{}, &CannotProceedError{Resolved: "count://b", RemainingName: MustParseName(op.Name).Suffix(1)}
	}
	return Result{Value: op.Name}, nil
}

func (c *countCtx) Dead() bool                       { return c.dead.Load() }
func (c *countCtx) NameInNamespace() (string, error) { return "", nil }
func (c *countCtx) Environment() map[string]any      { return nil }
func (c *countCtx) Close() error                     { c.closes.Add(1); return nil }

// hopCounter is a chained middleware that counts the hops it sees.
type hopCounter struct{ hops atomic.Int64 }

func (m *hopCounter) WrapContext(c Context) Context { return c }
func (m *hopCounter) OpenURL(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error) {
	return m.OpenURLNext(ctx, rawURL, env, OpenURL)
}
func (m *hopCounter) OpenURLNext(ctx context.Context, rawURL string, env map[string]any, next OpenURLFunc) (Context, Name, error) {
	m.hops.Add(1)
	return next(ctx, rawURL, env)
}
func (m *hopCounter) Close() error { return nil }

func registerCounting(t *testing.T) *countingProvider {
	resetSPIForTest()
	t.Cleanup(resetSPIForTest)
	p := &countingProvider{opens: map[string]int{}, roots: map[string][]*countCtx{}}
	RegisterProvider("count", p)
	return p
}

// An InitialContext opens a provider root once per scheme://authority:
// not per operation, not per federation hop, and not per concurrent first
// use. A root that reports itself dead is opened exactly once more, and
// Close closes every root it opened exactly once. The per-hop middleware
// still sees every hop.
func TestInitialContextOpensOncePerAuthority(t *testing.T) {
	ctx := context.Background()
	for _, chained := range []bool{false, true} {
		p := registerCounting(t)
		mw := &hopCounter{}
		var opts []Option
		if chained {
			opts = append(opts, WithMiddleware(mw))
		}
		ic, err := Open(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ic.Lookup(ctx, "count://a/k"); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if opens, _ := p.count("a"); opens != 1 {
			t.Fatalf("chained=%v: 8 concurrent first lookups opened count://a %d times, want 1", chained, opens)
		}

		for i := 0; i < 1000; i++ {
			name, want := "count://a/k", "k"
			if i%2 == 1 {
				name, want = "count://a/hop/x", "x" // continues in count://b
			}
			if v, err := ic.Lookup(ctx, name); err != nil || v != want {
				t.Fatalf("lookup %s = %v, %v", name, v, err)
			}
		}
		for _, a := range []string{"a", "b"} {
			if opens, _ := p.count(a); opens != 1 {
				t.Errorf("chained=%v: 1000 lookups opened count://%s %d times, want 1", chained, a, opens)
			}
		}
		if chained {
			if got := mw.hops.Load(); got != 8+1000+500 {
				t.Errorf("middleware saw %d hops, want %d", got, 8+1000+500)
			}
		}

		// A looked-up context reference borrows the held root: closing
		// it leaves the root open.
		obj, err := ic.Lookup(ctx, "count://a/ref")
		if err != nil {
			t.Fatal(err)
		}
		must(t, obj.(Context).Close())
		if _, roots := p.count("c"); len(roots) != 1 || roots[0].closes.Load() != 0 {
			t.Fatalf("closing a looked-up reference closed the held root")
		}

		_, roots := p.count("a")
		roots[0].dead.Store(true)
		for i := 0; i < 10; i++ {
			if _, err := ic.Lookup(ctx, "count://a/k"); err != nil {
				t.Fatal(err)
			}
		}
		opens, roots := p.count("a")
		if opens != 2 || roots[0].closes.Load() != 1 {
			t.Fatalf("after the root died: %d opens (want 2), dead root closed %d times (want 1)", opens, roots[0].closes.Load())
		}

		must(t, ic.Close())
		must(t, ic.Close())
		for _, a := range []string{"a", "b", "c"} {
			_, roots := p.count(a)
			for i, r := range roots {
				if n := r.closes.Load(); n != 1 {
					t.Errorf("count://%s root %d closed %d times, want 1", a, i, n)
				}
			}
		}
		if _, err := ic.Lookup(ctx, "count://a/k"); !errors.Is(err, ErrClosed) {
			t.Errorf("lookup after Close: %v, want ErrClosed", err)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

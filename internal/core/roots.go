package core

import (
	"context"
	"sync"
)

// Liveness is an optional Context extension for a context over a
// connection. Dead reports that the context can serve no more operations
// (its connection closed or released, or its endpoint's breaker open), so
// an InitialContext that holds it as a root opens the root again before
// the next use.
type Liveness interface {
	Dead() bool
}

// rootTable is an InitialContext's provider roots, one per
// "scheme://authority": the base of its URL resolution chain. A provider's
// OpenURL runs once per root, not once per operation, and the table closes
// what it opened when the InitialContext closes.
type rootTable struct {
	mu     sync.Mutex
	closed bool
	m      map[string]*heldRoot
}

// heldRoot is one root, opened once by the caller that installed it.
type heldRoot struct {
	ready chan struct{} // closed, under rootTable.mu, once the open ends
	c     Context       // the opened root; nil if the open failed
}

// open resolves a URL-form name to the held root of its scheme and
// authority plus the URL's path as remaining name. It is an OpenURLFunc
// ending the middleware chain; env is the InitialContext's environment.
func (t *rootTable) open(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, Name{}, err
	}
	u, err := ParseURLName(rawURL)
	if err != nil {
		return nil, Name{}, err
	}
	c, err := t.root(ctx, rootKey(rawURL, u), env)
	if err != nil {
		return nil, Name{}, err
	}
	return c, u.Path, nil
}

// rootKey is u's "scheme://authority", sliced out of rawURL when rawURL
// spells it that way, so finding a held root allocates nothing.
func rootKey(rawURL string, u URLName) string {
	n := len(u.Scheme) + len("://") + len(u.Authority)
	if len(rawURL) >= n && rawURL[:len(u.Scheme)] == u.Scheme {
		return rawURL[:n]
	}
	return u.Scheme + "://" + u.Authority
}

// root returns the held root for key. A root that is absent, whose open
// failed, or that reports itself Dead is opened (again) by the one caller
// that swaps a fresh entry in; concurrent callers wait for that open.
func (t *rootTable) root(ctx context.Context, key string, env map[string]any) (Context, error) {
	for {
		t.mu.Lock()
		r, closed := t.m[key], t.closed
		t.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if r != nil {
			select {
			case <-r.ready: // the usual case: no need for ctx.Done()
			default:
				select {
				case <-r.ready:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if r.c != nil && !isDead(r.c) {
				return r.c, nil
			}
		}
		t.mu.Lock()
		if t.closed || t.m[key] != r {
			t.mu.Unlock()
			continue // closed, or another caller replaced r first
		}
		fresh := &heldRoot{ready: make(chan struct{})}
		if t.m == nil {
			t.m = map[string]*heldRoot{}
		}
		t.m[key] = fresh
		t.mu.Unlock()
		if r != nil && r.c != nil {
			_ = r.c.Close() // dead: release what it still holds
		}

		c, _, err := OpenURL(ctx, key, env)
		var orphan Context
		t.mu.Lock()
		switch {
		case err != nil:
			delete(t.m, key)
		case t.closed:
			orphan, err = c, ErrClosed // Close ran without seeing it
		default:
			fresh.c = c
		}
		close(fresh.ready)
		t.mu.Unlock()
		if orphan != nil {
			_ = orphan.Close()
		}
		return fresh.c, err
	}
}

func isDead(c Context) bool {
	l, ok := c.(Liveness)
	return ok && l.Dead()
}

// close closes every held root once; a root still opening is closed by
// its opener, which sees the table closed.
func (t *rootTable) close() error {
	t.mu.Lock()
	m := t.m
	t.closed, t.m = true, nil
	t.mu.Unlock()
	var err error
	for _, r := range m {
		select {
		case <-r.ready:
			if r.c == nil {
				continue
			}
			if cerr := r.c.Close(); err == nil {
				err = cerr
			}
		default:
		}
	}
	return err
}

// borrowed hands a held root to a caller (a looked-up context reference):
// every operation goes to the root, and Close releases nothing, because
// the InitialContext that holds the root closes it.
type borrowed struct {
	BatchOpContext
	root Context
}

func borrow(c Context) Context {
	b := &borrowed{root: c}
	b.Doer = b
	return b
}

// Do implements Doer.
func (b *borrowed) Do(ctx context.Context, op Op) (Result, error) { return Do(ctx, b.root, op) }

// NameInNamespace implements Context.
func (b *borrowed) NameInNamespace() (string, error) { return b.root.NameInNamespace() }

// Environment implements Context.
func (b *borrowed) Environment() map[string]any { return b.root.Environment() }

// Close implements Context; the root stays open.
func (b *borrowed) Close() error { return nil }

// Unwrap returns the held root (tests and diagnostics).
func (b *borrowed) Unwrap() Context { return b.root }

// Reference implements Referenceable when the root does.
func (b *borrowed) Reference() (*Reference, error) {
	if rf, ok := b.root.(Referenceable); ok {
		return rf.Reference()
	}
	return nil, ErrNotSupported
}

package sync

import (
	"context"
	stdsync "sync"
	"time"

	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/obs"
)

// The mirror-fallback middleware: graceful degradation for reads. It
// sits innermost in the InitialContext middleware stack (inside the
// cache — see core.WithMirrorFallback), so when resolution or a read
// against an origin fails with a transport-class error and an active
// mirror covers the name, the answer comes from the mirror's
// materialized replica. Never silently: every diverted open and served
// read is counted (gondi_sync_mirror_serves_total) and annotated on the
// federation trace (mirror=open / mirror=serve), and writes never
// divert — a mirror is a read-only degraded mode, not a second master.

// Register installs the sync package's hooks into core and obs:
// the FallbackFactory behind core.WithMirrorFallback, and the
// /debug/vars "sync" section listing every mirror's Status. Call it
// alongside the provider Register calls.
func Register() {
	core.RegisterFallbackFactory(func(env map[string]any) core.Middleware {
		return &middleware{}
	})
	publishStatus()
}

var publishOnce stdsync.Once

// publishStatus exposes mirror statuses at /debug/vars under "sync".
// Idempotent; called from Register and from the first Mirror.Start so
// statuses are visible even when no context opted into the fallback.
func publishStatus() {
	publishOnce.Do(func() {
		obs.RegisterVarsSection("sync", func() any { return Statuses() })
	})
}

// middleware implements core.Middleware + core.ChainedMiddleware.
type middleware struct{}

// WrapContext leaves the default context alone: the fallback applies to
// URL-resolved origins, which is where mirrors point.
func (m *middleware) WrapContext(c core.Context) core.Context { return c }

func (m *middleware) Close() error { return nil }

// OpenURL terminates the chain when the middleware runs standalone.
func (m *middleware) OpenURL(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
	return m.OpenURLNext(ctx, rawURL, env, core.OpenURL)
}

// OpenURLNext resolves through the next layer. On success against a
// mirrored origin it wraps the context so per-read failures can divert
// later; on transport-class failure against a mirrored origin it
// returns a mirror-backed root instead of the error.
func (m *middleware) OpenURLNext(ctx context.Context, rawURL string, env map[string]any, next core.OpenURLFunc) (core.Context, core.Name, error) {
	c, rest, err := next(ctx, rawURL, env)
	u, perr := core.ParseURLName(rawURL)
	if perr != nil {
		return c, rest, err
	}
	if err == nil {
		if coversAuthority(u.Scheme, u.Authority) {
			return newFbCtx(c, u.Scheme, u.Authority, core.Name{}), rest, nil
		}
		return c, rest, nil
	}
	if !failover.TransportClass(err) || !coversAuthority(u.Scheme, u.Authority) {
		return c, rest, err
	}
	obs.MirrorEvent(ctx, "open")
	r := &mirrorRoot{scheme: u.Scheme, authority: u.Authority, origErr: err}
	r.Doer = r
	return r, u.Path, nil
}

// divertible reports whether op is a read a mirror may answer. Writes
// never divert: a mirror never accepts writes on the origin's behalf (that
// would fork the namespace — the origin heals and the divergence has no
// merge rule). Watch never diverts: a mirror cannot observe origin changes
// the origin is too dead to emit.
func divertible(op core.Op) bool {
	switch op.Kind {
	case core.OpLookup, core.OpLookupLink, core.OpList, core.OpListBindings,
		core.OpGetAttributes, core.OpSearch:
		return true
	}
	return false
}

// serve answers one read op from the mirror covering full, if any.
// Returns (result, true) when the mirror answered — including with a
// legitimate semantic error like ErrNotFound — and (_, false) when no
// mirror covers the name or the mirror itself is unreachable (the
// caller then surfaces the origin's error, not the mirror's).
func serve(ctx context.Context, scheme, authority string, full core.Name, op core.Op) (core.Result, error, bool) {
	m, rel, ok := lookupMirror(scheme, authority, full)
	if !ok {
		return core.Result{}, nil, false
	}
	op.Name = m.destBase.Concat(rel).String()
	res, err := core.Do(ctx, m.destRoot, op)
	if err != nil && failover.TransportClass(err) {
		return core.Result{}, nil, false
	}
	m.serves.Add(1)
	obs.Default.Counter("gondi_sync_mirror_serves_total",
		"Reads answered from a mirror because the origin was unreachable.",
		obs.Label{K: "mirror", V: m.name}, obs.Label{K: "op", V: op.Kind.String()}).Inc()
	obs.MirrorEvent(ctx, "serve")
	return res, err, true
}

// fbCtx wraps an origin context opened while its authority is mirrored.
// Its Do runs every op on the origin first; a read (see divertible) that
// fails transport-class is then answered by the mirror covering the name,
// and everything else — writes, watches, semantic errors, uncovered names
// — comes back exactly as the origin gave it. Contexts the origin hands
// out (looked up or created) are wrapped again one level deeper. base
// tracks how deep this wrapper sits below the provider root, so relative
// names map into the mirror registry's provider-root-relative namespace.
//
// It embeds core.OpContext, not BatchOpContext: core.LookupMany must
// reach Do one item at a time, so each item can divert on its own.
type fbCtx struct {
	core.OpContext
	inner     core.Context
	scheme    string
	authority string
	base      core.Name
}

var _ core.DirContext = (*fbCtx)(nil)
var _ core.EventContext = (*fbCtx)(nil)

func newFbCtx(inner core.Context, scheme, authority string, base core.Name) *fbCtx {
	f := &fbCtx{inner: inner, scheme: scheme, authority: authority, base: base}
	f.Doer = f
	return f
}

// Unwrap lets obs.Uninstrument strip the wrapper.
func (f *fbCtx) Unwrap() core.Context { return f.inner }

// child wraps a context the origin handed out under name one level
// deeper; under a name that does not parse it stays unwrapped.
func (f *fbCtx) child(name string, c core.Context) core.Context {
	n, err := core.ParseName(name)
	if err != nil {
		return c
	}
	return newFbCtx(c, f.scheme, f.authority, f.base.Concat(n))
}

// Do implements core.Doer; see the type comment.
func (f *fbCtx) Do(ctx context.Context, op core.Op) (core.Result, error) {
	res, err := core.Do(ctx, f.inner, op)
	if err != nil {
		if divertible(op) && failover.TransportClass(err) {
			if n, perr := core.ParseName(op.Name); perr == nil {
				if mres, merr, served := serve(ctx, f.scheme, f.authority, f.base.Concat(n), op); served {
					return mres, merr
				}
			}
		}
		return res, err
	}
	if c, ok := res.Value.(core.Context); ok && op.Kind == core.OpLookup {
		res.Value = f.child(op.Name, c)
	}
	if res.Context != nil {
		res.Context = f.child(op.Name, res.Context)
	}
	return res, nil
}

// AdviseTTL and SyncCursor forward structurally (the cache sits outside
// this wrapper and asks through it).
func (f *fbCtx) AdviseTTL(name string) (time.Duration, bool) {
	type ttlAdvisor interface {
		AdviseTTL(name string) (time.Duration, bool)
	}
	if a, ok := f.inner.(ttlAdvisor); ok {
		return a.AdviseTTL(name)
	}
	return 0, false
}

func (f *fbCtx) SyncCursor(ctx context.Context, name string) (string, bool, error) {
	if cs, ok := f.inner.(CursorSource); ok {
		return cs.SyncCursor(ctx, name)
	}
	return "", false, nil
}

func (f *fbCtx) NameInNamespace() (string, error) { return f.inner.NameInNamespace() }
func (f *fbCtx) Environment() map[string]any      { return f.inner.Environment() }
func (f *fbCtx) Close() error                     { return f.inner.Close() }

// mirrorRoot stands in for an origin whose OPEN already failed: its Do
// answers every read from whichever mirror covers the name; everything
// else — writes, watches, uncovered names — fails with the ORIGIN's
// typed error, so callers see exactly what is degraded and why. Like
// fbCtx it is not a BatchContext, so batches divert per item.
type mirrorRoot struct {
	core.OpContext
	scheme    string
	authority string
	origErr   error
}

var _ core.DirContext = (*mirrorRoot)(nil)

// Do implements core.Doer; see the type comment.
func (r *mirrorRoot) Do(ctx context.Context, op core.Op) (core.Result, error) {
	if divertible(op) {
		if full, err := core.ParseName(op.Name); err == nil {
			if res, err, served := serve(ctx, r.scheme, r.authority, full, op); served {
				return res, err
			}
		}
	}
	return core.Result{}, r.origErr
}

func (r *mirrorRoot) NameInNamespace() (string, error) { return "", r.origErr }
func (r *mirrorRoot) Environment() map[string]any      { return nil }
func (r *mirrorRoot) Close() error                     { return nil }

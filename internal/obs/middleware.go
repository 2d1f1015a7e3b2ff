package obs

import (
	"context"
	"time"

	"gondi/internal/core"
)

// Middleware is the observability resolution middleware. Installed via
// core.Open(core.WithMiddleware(obs.NewMiddleware())) it sits outside the
// cache, so it observes every operation — including ones the cache absorbs:
//
//   - OpObserver: BeginOp starts one federation Trace per InitialContext
//     operation and records resolve-level op/error counters and latency.
//   - OpenURLNext opens a hop span per URL resolution (the first hop and
//     every CannotProceedError continuation) before delegating to the
//     next layer (the cache, or the InitialContext's held roots). A
//     plain name resolves at EnvProviderURL's held root, so it is a hop
//     of that URL's scheme like any other.
type Middleware struct {
	reg *Registry
}

// NewMiddleware returns the obs middleware recording into the Default
// registry.
func NewMiddleware() *Middleware { return &Middleware{reg: Default} }

// newMiddlewareRegistry is NewMiddleware for an explicit registry (tests).
func newMiddlewareRegistry(r *Registry) *Middleware { return &Middleware{reg: r} }

// BeginOp implements core.OpObserver: it starts a federation trace carried
// by the returned context and meters the operation at the resolve level.
func (m *Middleware) BeginOp(ctx context.Context, op, name string) (context.Context, func(err error)) {
	if !enabled.Load() {
		return ctx, func(error) {}
	}
	start := time.Now()
	ops := m.reg.Counter("gondi_resolve_ops_total",
		"InitialContext operations started, by op.", Label{"op", op})
	errs := m.reg.Counter("gondi_resolve_errors_total",
		"InitialContext operations that returned an error, by op.", Label{"op", op})
	lat := m.reg.Histogram("gondi_resolve_seconds",
		"End-to-end InitialContext operation latency, by op.", Label{"op", op})
	tctx, finish := StartTrace(ctx, op, name)
	return tctx, func(err error) {
		ops.Inc()
		lat.Since(start)
		if err != nil {
			errs.Inc()
		}
		finish(err)
	}
}

// OpenURLNext implements core.Middleware: each call is one
// federation hop, so it opens a span on the operation's trace, counts the
// hop, and delegates resolution to the layer below.
func (m *Middleware) OpenURLNext(ctx context.Context, rawURL string, env map[string]any, next core.OpenURLFunc) (core.Context, core.Name, error) {
	if !enabled.Load() {
		return next(ctx, rawURL, env)
	}
	scheme, authority := splitURL(rawURL)
	StartHop(ctx, scheme, authority, scheme)
	m.reg.Counter("gondi_federation_hops_total",
		"Federation hops resolved, by scheme.", Label{"scheme", scheme}).Inc()
	c, rest, err := next(ctx, rawURL, env)
	if err != nil {
		m.reg.Counter("gondi_federation_hop_errors_total",
			"Federation hops that failed to resolve, by scheme.", Label{"scheme", scheme}).Inc()
		HopErr(ctx, err)
	}
	return c, rest, err
}

// Close implements core.Middleware; the obs middleware holds no resources.
func (m *Middleware) Close() error { return nil }

// splitURL extracts (scheme, authority) from a URL-form name without a
// full parse: "hdns://h1:7001/a/b" -> ("hdns", "h1:7001").
func splitURL(rawURL string) (scheme, authority string) {
	i := 0
	for i < len(rawURL) && rawURL[i] != ':' {
		i++
	}
	if i == len(rawURL) {
		return rawURL, ""
	}
	scheme, rest := rawURL[:i], rawURL[i+1:]
	if len(rest) >= 2 && rest[0] == '/' && rest[1] == '/' {
		rest = rest[2:]
		for j := 0; j < len(rest); j++ {
			if rest[j] == '/' {
				return scheme, rest[:j]
			}
		}
		return scheme, rest
	}
	return scheme, ""
}

package obs

import (
	"context"
	"errors"
	"sync"
	"time"

	"gondi/internal/core"
)

// The shared instrumenting wrapper: a ptest-style decorator every
// provider (and the obs middleware) uses to meter a core.Context. Each
// operation increments exactly one op counter and records exactly one
// latency observation; failed operations additionally increment the error
// counter. CannotProceedError continuations are not errors — they are how
// federation hands off to the next hop — so they count as ops only.

// opMetrics is the per-(system, op) instrument triple.
type opMetrics struct {
	ops  *Counter
	errs *Counter
	lat  *Histogram
}

// InstrumentSet holds one system's pre-registered op instruments, one per
// core.OpKind (whose String is the op label), so the per-call path is an
// array index, no registry lookups.
type InstrumentSet struct {
	byOp [core.NumOpKinds]opMetrics
}

// NewInstrumentSet registers (or re-uses) the op instruments for one
// subsystem/system pair in r:
//
//	gondi_<subsystem>_ops_total{system=..., op=...}
//	gondi_<subsystem>_errors_total{system=..., op=...}
//	gondi_<subsystem>_op_seconds{system=..., op=...}
func NewInstrumentSet(r *Registry, subsystem, system string) *InstrumentSet {
	s := &InstrumentSet{}
	for k := range s.byOp {
		labels := []Label{{"system", system}, {"op", core.OpKind(k).String()}}
		s.byOp[k] = opMetrics{
			ops:  r.Counter("gondi_"+subsystem+"_ops_total", "naming operations by system and op", labels...),
			errs: r.Counter("gondi_"+subsystem+"_errors_total", "failed naming operations (federation continuations excluded)", labels...),
			lat:  r.Histogram("gondi_"+subsystem+"_op_seconds", "naming operation latency", labels...),
		}
	}
	return s
}

// setCache memoizes instrument sets on the Default registry, so wrapping
// a context per federation hop costs one sync.Map hit, not a registry
// registration per op kind.
var setCache sync.Map // "subsystem\x00system" -> *InstrumentSet

func defaultSet(subsystem, system string) *InstrumentSet {
	key := subsystem + "\x00" + system
	if v, ok := setCache.Load(key); ok {
		return v.(*InstrumentSet)
	}
	s := NewInstrumentSet(Default, subsystem, system)
	actual, _ := setCache.LoadOrStore(key, s)
	return actual.(*InstrumentSet)
}

// record meters one finished op and annotates the current trace hop.
func (s *InstrumentSet) record(ctx context.Context, kind core.OpKind, start time.Time, err error) {
	m := &s.byOp[kind]
	m.ops.Inc()
	m.lat.Since(start)
	HopOp(ctx)
	if err != nil {
		var cpe *core.CannotProceedError
		if errors.As(err, &cpe) {
			return // a continuation, not a failure
		}
		m.errs.Inc()
		HopErr(ctx, err)
	}
}

// Instrument wraps inner with per-op metrics under
// gondi_<subsystem>_*{system=...} in the Default registry. The wrapper
// preserves inner's optional capabilities: DirContext and EventContext
// methods fail with core.ErrNotSupported exactly when inner lacks them,
// and TTL advice (the cache's TTLAdvisor) and liveness (core.Liveness)
// pass through.
func Instrument(inner core.Context, subsystem, system string) core.Context {
	return newInstCtx(inner, defaultSet(subsystem, system))
}

// InstrumentDir is Instrument typed for DirContext call sites.
func InstrumentDir(inner core.DirContext, subsystem, system string) core.DirContext {
	return newInstCtx(inner, defaultSet(subsystem, system)).(core.DirContext)
}

func newInstCtx(inner core.Context, set *InstrumentSet) core.Context {
	if ic, ok := inner.(*InstCtx); ok && ic.set == set {
		return ic // never double-meter the same system
	}
	w := &InstCtx{inner: inner, set: set}
	w.Doer = w
	return w
}

// InstCtx is the instrumented wrapper. It has the full DirContext +
// EventContext + BatchContext surface (core.BatchOpContext over Do) and
// defers capability checks to the inner context, mirroring the cache
// wrapper's contract.
type InstCtx struct {
	core.BatchOpContext
	inner core.Context
	set   *InstrumentSet
}

var (
	_ core.DirContext   = (*InstCtx)(nil)
	_ core.EventContext = (*InstCtx)(nil)
	_ core.BatchContext = (*InstCtx)(nil)
)

// Do runs op on the inner context and meters it: every kind the same way,
// a batch as one op (natively batched or per item, as core.Do decides).
// An op inner lacks the capability for is refused by core.Do without
// being metered — a refusal is not work. Contexts that come back (a
// looked-up context, a created subcontext) stay instrumented; the
// listener's event deliveries of a Watch are not metered (they are
// pushes, not ops).
func (w *InstCtx) Do(ctx context.Context, op core.Op) (core.Result, error) {
	if !core.Supports(w.inner, op) {
		return core.Do(ctx, w.inner, op)
	}
	start := time.Now()
	res, err := core.Do(ctx, w.inner, op)
	w.set.record(ctx, op.Kind, start, err)
	if err != nil {
		return res, err
	}
	if c, ok := res.Value.(core.Context); ok && op.Kind == core.OpLookup {
		res.Value = newInstCtx(c, w.set)
	}
	if res.Context != nil {
		res.Context = newInstCtx(res.Context, w.set)
	}
	return res, nil
}

// Unwrap returns the wrapped context (tests and diagnostics).
func (w *InstCtx) Unwrap() core.Context { return w.inner }

// Uninstrument strips instrumentation wrappers (and any other wrapper
// exposing Unwrap), returning the underlying provider context. Tests that
// need the concrete provider type go through this instead of downcasting
// core.OpenURL's result directly.
func Uninstrument(c core.Context) core.Context {
	for {
		w, ok := c.(interface{ Unwrap() core.Context })
		if !ok {
			return c
		}
		c = w.Unwrap()
	}
}

// Reference implements core.Referenceable when inner does.
func (w *InstCtx) Reference() (*core.Reference, error) {
	if rf, ok := w.inner.(core.Referenceable); ok {
		return rf.Reference()
	}
	return nil, core.ErrNotSupported
}

// AdviseTTL forwards the cache's structural TTLAdvisor interface.
func (w *InstCtx) AdviseTTL(name string) (time.Duration, bool) {
	type ttlAdvisor interface {
		AdviseTTL(name string) (time.Duration, bool)
	}
	if a, ok := w.inner.(ttlAdvisor); ok {
		return a.AdviseTTL(name)
	}
	return 0, false
}

// Dead forwards core.Liveness, so an InitialContext sees through the
// wrapper whether the provider root's connection is gone.
func (w *InstCtx) Dead() bool {
	l, ok := w.inner.(core.Liveness)
	return ok && l.Dead()
}

// NameInNamespace implements core.Context.
func (w *InstCtx) NameInNamespace() (string, error) { return w.inner.NameInNamespace() }

// Environment implements core.Context.
func (w *InstCtx) Environment() map[string]any { return w.inner.Environment() }

// Close implements core.Context.
func (w *InstCtx) Close() error { return w.inner.Close() }

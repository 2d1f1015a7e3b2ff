package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Federation tracing: one Trace per InitialContext operation, one Span
// per resolution hop. A hop is one naming system visited — the initial
// provider open plus every CannotProceedError continuation — so a 2-hop
// dns->hdns lookup yields one Trace holding two Spans, in causal order.
//
// The trace rides the context.Context the resolution already threads
// through every layer: the obs middleware starts it, each middleware
// OpenURL appends a hop, and the cache, retry and wire layers annotate
// the current hop via the package-level helpers below (all no-ops when
// the context carries no trace, so lower layers stay decoupled).

// Span records one federation hop.
type Span struct {
	// Scheme and Authority identify the naming system visited; Provider
	// is the scheme's registered provider label (usually the scheme).
	Scheme    string `json:"scheme"`
	Authority string `json:"authority,omitempty"`
	Provider  string `json:"provider"`
	// Cache is the hop's cache disposition: "", "hit", "negative-hit",
	// "miss", "collapsed", or "bypass".
	Cache string `json:"cache,omitempty"`
	// Retries counts retry attempts beyond the first try on this hop;
	// BackoffNs is time spent sleeping between them.
	Retries   int           `json:"retries,omitempty"`
	BackoffNs time.Duration `json:"backoff_ns,omitempty"`
	// WireRTs counts wire round-trips issued while this hop was current
	// (RPC calls, DNS exchanges, LDAP operations).
	WireRTs int `json:"wire_rts,omitempty"`
	// Ops counts naming operations executed against the hop's context.
	Ops int `json:"ops,omitempty"`
	// Batch accumulates the number of operations carried in batched wire
	// frames while this hop was current (0 = no batching happened).
	Batch int `json:"batch,omitempty"`
	// Err is the hop's terminal error, "" on success. A CannotProceed
	// continuation is not an error — it closes the hop and opens the next.
	Err string `json:"err,omitempty"`

	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

// Trace is one traced operation: the root op plus its hop spans.
type Trace struct {
	ID   uint64 `json:"id"`
	Op   string `json:"op"`
	Name string `json:"name"`

	mu       sync.Mutex
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
	Hops     []*Span       `json:"hops"`
	done     bool
}

var traceID atomic.Uint64

type traceKey struct{}

// newTrace starts a trace for one operation. Callers thread the returned
// context through the operation and call finish exactly once.
func newTrace(ctx context.Context, op, name string) (context.Context, *Trace) {
	t := &Trace{ID: traceID.Add(1), Op: op, Name: name, Start: time.Now()}
	return context.WithValue(ctx, traceKey{}, t), t
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartTrace begins an explicitly managed trace (tools and tests; the obs
// middleware starts one per operation automatically). finish closes the
// trace, records it into the recent-trace ring, and returns it.
func StartTrace(ctx context.Context, op, name string) (tctx context.Context, finish func(err error) *Trace) {
	if !enabled.Load() {
		return ctx, func(error) *Trace { return nil }
	}
	tctx, t := newTrace(ctx, op, name)
	return tctx, func(err error) *Trace {
		t.finish(err)
		recordTrace(t)
		return t
	}
}

// StartHop opens a new span on ctx's trace; a no-op without one. Closing
// is implicit: a hop ends when the next one starts or the trace finishes.
func StartHop(ctx context.Context, scheme, authority, provider string) {
	t := TraceFrom(ctx)
	if t == nil || !enabled.Load() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.closeCurrentLocked(now)
	t.Hops = append(t.Hops, &Span{Scheme: scheme, Authority: authority, Provider: provider, Start: now})
}

// closeCurrentLocked stamps the open hop's duration, if any.
func (t *Trace) closeCurrentLocked(now time.Time) {
	if n := len(t.Hops); n > 0 && t.Hops[n-1].Duration == 0 {
		t.Hops[n-1].Duration = now.Sub(t.Hops[n-1].Start)
	}
}

// annotate runs fn against the current hop, creating a synthetic "local"
// hop for annotations that arrive before any provider hop (e.g. a default
// in-memory context operation).
func (t *Trace) annotate(fn func(*Span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	if len(t.Hops) == 0 {
		t.Hops = append(t.Hops, &Span{Scheme: "local", Provider: "local", Start: time.Now()})
	}
	fn(t.Hops[len(t.Hops)-1])
}

// HopErr marks the current hop's terminal error.
func HopErr(ctx context.Context, err error) {
	t := TraceFrom(ctx)
	if t == nil || err == nil || !enabled.Load() {
		return
	}
	t.annotate(func(s *Span) { s.Err = err.Error() })
}

// HopOp counts one naming operation against the current hop.
func HopOp(ctx context.Context) {
	t := TraceFrom(ctx)
	if t == nil || !enabled.Load() {
		return
	}
	t.annotate(func(s *Span) { s.Ops++ })
}

// CacheEvent records the current hop's cache disposition ("hit",
// "negative-hit", "miss", "collapsed", "bypass"). The last event on a hop
// wins, which is what a read-through wants: a miss that fills overwrites
// the initial miss marker only if the caller reports again.
func CacheEvent(ctx context.Context, kind string) {
	t := TraceFrom(ctx)
	if t == nil || !enabled.Load() {
		return
	}
	t.annotate(func(s *Span) { s.Cache = kind })
}

// AddRetry accumulates retry attempts and backoff sleep on the current hop.
func AddRetry(ctx context.Context, attempts int, backoff time.Duration) {
	t := TraceFrom(ctx)
	if t == nil || !enabled.Load() {
		return
	}
	t.annotate(func(s *Span) { s.Retries += attempts; s.BackoffNs += backoff })
}

// AddBatch records that a batched wire frame carried n operations on the
// current hop, so one trace span per batch reports its size.
func AddBatch(ctx context.Context, n int) {
	t := TraceFrom(ctx)
	if t == nil || !enabled.Load() {
		return
	}
	t.annotate(func(s *Span) { s.Batch += n })
}

// AddWireRT counts one wire round-trip on the current hop.
func AddWireRT(ctx context.Context) {
	t := TraceFrom(ctx)
	if t == nil || !enabled.Load() {
		return
	}
	t.annotate(func(s *Span) { s.WireRTs++ })
}

// finish closes the trace.
func (t *Trace) finish(err error) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.closeCurrentLocked(now)
	t.Duration = now.Sub(t.Start)
	if err != nil {
		t.Err = err.Error()
	}
}

// snapshot returns a deep copy safe to serialize without holding locks.
func (t *Trace) snapshot() *TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &TraceSnapshot{
		ID: t.ID, Op: t.Op, Name: t.Name,
		Start: t.Start, Duration: t.Duration, Err: t.Err,
	}
	for _, h := range t.Hops {
		hc := *h
		s.Hops = append(s.Hops, &hc)
	}
	return s
}

// TraceSnapshot is an immutable copy of a finished (or in-flight) trace.
type TraceSnapshot struct {
	ID       uint64        `json:"id"`
	Op       string        `json:"op"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
	Hops     []*Span       `json:"hops"`
}

// String renders a one-line causal summary: op name [hop -> hop -> hop].
func (s *TraceSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %q %s", s.Op, s.Name, s.Duration.Round(time.Microsecond))
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%q", s.Err)
	}
	for i, h := range s.Hops {
		if i == 0 {
			b.WriteString(" [")
		} else {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s://%s", h.Scheme, h.Authority)
		if h.Cache != "" {
			fmt.Fprintf(&b, " cache=%s", h.Cache)
		}
		if h.WireRTs > 0 {
			fmt.Fprintf(&b, " rt=%d", h.WireRTs)
		}
		if h.Retries > 0 {
			fmt.Fprintf(&b, " retries=%d", h.Retries)
		}
	}
	if len(s.Hops) > 0 {
		b.WriteString("]")
	}
	return b.String()
}

// --- recent-trace ring --------------------------------------------------

const traceRingSize = 128

var traceRing struct {
	mu   sync.Mutex
	buf  [traceRingSize]*TraceSnapshot
	next int
	n    int
}

// recordTrace pushes a finished trace into the recent ring served by
// /debug/vars. Multi-hop traces are what operators diagnose federation
// with, so they are always kept; single-hop traces are kept too (they are
// the common case and show cache behaviour), the ring just rotates faster.
func recordTrace(t *Trace) {
	s := t.snapshot()
	traceRing.mu.Lock()
	traceRing.buf[traceRing.next] = s
	traceRing.next = (traceRing.next + 1) % traceRingSize
	if traceRing.n < traceRingSize {
		traceRing.n++
	}
	traceRing.mu.Unlock()
}

// RecentTraces returns the most recent finished traces, newest first.
func RecentTraces(max int) []*TraceSnapshot {
	traceRing.mu.Lock()
	defer traceRing.mu.Unlock()
	if max <= 0 || max > traceRing.n {
		max = traceRing.n
	}
	out := make([]*TraceSnapshot, 0, max)
	for i := 0; i < max; i++ {
		idx := (traceRing.next - 1 - i + 2*traceRingSize) % traceRingSize
		if traceRing.buf[idx] != nil {
			out = append(out, traceRing.buf[idx])
		}
	}
	return out
}

// ResetTraces clears the recent-trace ring (tests).
func ResetTraces() {
	traceRing.mu.Lock()
	traceRing.next, traceRing.n = 0, 0
	for i := range traceRing.buf {
		traceRing.buf[i] = nil
	}
	traceRing.mu.Unlock()
}

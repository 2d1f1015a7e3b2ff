// Package admission implements per-server admission control: a bounded
// run queue partitioned by op class (read / write / search) with
// weight-derived per-class shares, optional token-bucket rate limits, and
// LIFO shedding — under saturation the *newest* arrival is rejected
// immediately with a typed *core.ServerBusyError carrying a RetryAfter
// hint, rather than queued behind work that will time out anyway.
//
// This is the fix for the paper's Figure 5 failure mode: unbounded
// buffers convert overload into collapse (service time grows with
// backlog until goodput approaches zero). Bounding the run queue keeps
// the backlog — and therefore the per-op service time — small, so a
// server at 2x offered load still completes work at its capacity and
// sheds the rest cheaply. Every server in this repository (hdns, jini
// LUS, dnssrv, ldapsrv, jxta rendezvous) admits its requests through a
// Controller, in its serverutil pipeline.
package admission

import (
	"sync"
	"time"

	"gondi/internal/core"
	"gondi/internal/obs"
)

// Class partitions admitted work for weighting and rate limiting.
type Class int

const (
	// Read covers point lookups, lists, lease renewals — cheap ops.
	Read Class = iota
	// Write covers mutations that enter the replication path.
	Write
	// Search covers scan-shaped ops (filter search, zone transfer,
	// discovery queries).
	Search
	numClasses
)

// String returns the obs label value for the class.
func (c Class) String() string {
	switch c {
	case Read:
		return "read"
	case Write:
		return "write"
	case Search:
		return "search"
	}
	return "other"
}

// ClassOptions configures one op class.
type ClassOptions struct {
	// Weight is the class's share of the run queue bound. The class's
	// guaranteed slots are QueueBound * Weight / sum(weights); unused
	// slots from other classes are not borrowed — the shares are hard so
	// a read storm can never starve writes. <=0 means the class is
	// admitted only through the shared remainder (weight 0 with other
	// classes weighted still reserves it one slot, so no class is shut
	// out by misconfiguration).
	Weight int
	// Rate is the class's token-bucket refill rate in ops/sec; 0 means
	// no rate limit for the class.
	Rate float64
	// Burst is the bucket depth; <=0 with Rate>0 defaults to max(1,
	// Rate/10) — a 100ms burst.
	Burst int
}

// Options configures a Controller. The zero value is usable:
// DefaultQueueBound total slots split by the default weights, no rate
// limits.
type Options struct {
	// Server labels the controller's obs metrics ("hdns", "jini", ...).
	Server string
	// QueueBound caps work concurrently inside the server (queued at a
	// cost station + executing). <=0 uses DefaultQueueBound. This is the
	// bounded buffer: everything past it is shed, never queued.
	QueueBound int
	// Read, Write, Search configure the classes. All-zero weights use
	// DefaultWeights.
	Read, Write, Search ClassOptions
	// RetryAfterMin / RetryAfterMax clamp the RetryAfter hint attached
	// to sheds. Zero uses DefaultRetryAfterMin / DefaultRetryAfterMax.
	RetryAfterMin, RetryAfterMax time.Duration
	// Disabled turns the controller into a no-op gate (admit
	// everything). Used by benchmarks to measure the unprotected stack.
	Disabled bool
}

// Defaults for zero Options fields.
const (
	DefaultQueueBound    = 256
	DefaultReadWeight    = 6
	DefaultWriteWeight   = 3
	DefaultSearchWeight  = 1
	DefaultRetryAfterMin = 5 * time.Millisecond
	DefaultRetryAfterMax = 2 * time.Second
)

// Option mutates Options; the typed-constructor pattern shared by the
// daemons through serverutil.
type Option func(*Options)

// WithServer sets the obs label.
func WithServer(name string) Option { return func(o *Options) { o.Server = name } }

// WithQueueBound sets the total run-queue bound.
func WithQueueBound(n int) Option { return func(o *Options) { o.QueueBound = n } }

// WithWeights sets the per-class queue weights.
func WithWeights(read, write, search int) Option {
	return func(o *Options) {
		o.Read.Weight, o.Write.Weight, o.Search.Weight = read, write, search
	}
}

// WithRate sets a token-bucket rate limit for one class.
func WithRate(c Class, rate float64, burst int) Option {
	return func(o *Options) {
		co := o.class(c)
		co.Rate, co.Burst = rate, burst
	}
}

// WithRetryAfterBounds clamps the RetryAfter hint.
func WithRetryAfterBounds(min, max time.Duration) Option {
	return func(o *Options) { o.RetryAfterMin, o.RetryAfterMax = min, max }
}

// WithDisabled turns admission off (benchmark ablation).
func WithDisabled(v bool) Option { return func(o *Options) { o.Disabled = v } }

func (o *Options) class(c Class) *ClassOptions {
	switch c {
	case Write:
		return &o.Write
	case Search:
		return &o.Search
	default:
		return &o.Read
	}
}

// NewOptions applies opts over the zero value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

func (o Options) withDefaults() Options {
	if o.QueueBound <= 0 {
		o.QueueBound = DefaultQueueBound
	}
	if o.Read.Weight <= 0 && o.Write.Weight <= 0 && o.Search.Weight <= 0 {
		o.Read.Weight, o.Write.Weight, o.Search.Weight = DefaultReadWeight, DefaultWriteWeight, DefaultSearchWeight
	}
	if o.RetryAfterMin <= 0 {
		o.RetryAfterMin = DefaultRetryAfterMin
	}
	if o.RetryAfterMax <= 0 {
		o.RetryAfterMax = DefaultRetryAfterMax
	}
	if o.RetryAfterMax < o.RetryAfterMin {
		o.RetryAfterMax = o.RetryAfterMin
	}
	return o
}

// bucket is a non-blocking token bucket. Unlike costmodel.RateLimiter
// (which blocks — exactly the queue growth admission exists to prevent)
// it refuses immediately and reports how long until a token exists.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// take consumes a token if available; otherwise it returns the wait
// until one will be.
func (b *bucket) take(now time.Time) (time.Duration, bool) {
	if b.rate <= 0 {
		return 0, true
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second)), false
}

type classState struct {
	limit    int // guaranteed run-queue slots
	inflight int
	bucket   bucket
	sheds    *obs.Counter
}

// Controller is one server's admission gate. Admit at dispatch, release
// when the op finishes; everything over the bound sheds typed.
type Controller struct {
	opts Options

	mu      sync.Mutex
	classes [numClasses]classState
	// ewmaService tracks smoothed per-op residence time (admit →
	// release) and feeds the RetryAfter drain estimate.
	ewmaService time.Duration

	depth   *obs.Gauge
	waitLat *obs.Histogram
}

// NewController builds a Controller from Options. A nil *Controller is a
// valid no-op gate, so servers can leave admission unconfigured.
func NewController(o Options) *Controller {
	o = o.withDefaults()
	label := obs.Label{K: "server", V: o.Server}
	c := &Controller{
		opts: o,
		depth: obs.Default.Gauge("gondi_admission_queue_depth",
			"Work currently admitted (queued + executing).", label),
		waitLat: obs.Default.Histogram("gondi_admission_wait_seconds",
			"Latency of the admission decision itself.", label),
	}
	total := o.Read.Weight + o.Write.Weight + o.Search.Weight
	if total <= 0 {
		total = 1
	}
	for cl := Class(0); cl < numClasses; cl++ {
		co := *o.class(cl)
		limit := o.QueueBound * co.Weight / total
		if limit < 1 {
			// No class is ever completely shut out: even weight-0
			// classes keep one slot.
			limit = 1
		}
		burst := float64(co.Burst)
		if co.Rate > 0 && co.Burst <= 0 {
			burst = co.Rate / 10
			if burst < 1 {
				burst = 1
			}
		}
		c.classes[cl] = classState{
			limit:  limit,
			bucket: bucket{rate: co.Rate, burst: burst},
			sheds: obs.Default.Counter("gondi_admission_shed_total",
				"Requests shed by admission control.",
				label, obs.Label{K: "class", V: cl.String()}),
		}
	}
	return c
}

// Admit asks to run one op of the given class. On success it returns a
// release func that MUST be called when the op finishes (it frees the
// run-queue slot and updates the drain estimate). On saturation it
// returns a *core.ServerBusyError with a RetryAfter hint — LIFO shed:
// the caller's brand-new op is the one rejected, admitted work is never
// aborted.
func (c *Controller) Admit(class Class, endpoint, op string) (func(), error) {
	if c == nil || c.opts.Disabled {
		return func() {}, nil
	}
	start := time.Now()
	c.mu.Lock()
	cs := &c.classes[class]
	if cs.inflight >= cs.limit {
		hint := c.drainHintLocked(cs)
		c.mu.Unlock()
		cs.sheds.Inc()
		c.waitLat.Since(start)
		return nil, &core.ServerBusyError{Endpoint: endpoint, Op: op, RetryAfter: hint}
	}
	if wait, ok := cs.bucket.take(start); !ok {
		hint := c.clampHint(wait)
		c.mu.Unlock()
		cs.sheds.Inc()
		c.waitLat.Since(start)
		return nil, &core.ServerBusyError{Endpoint: endpoint, Op: op, RetryAfter: hint}
	}
	cs.inflight++
	c.mu.Unlock()
	c.depth.Add(1)
	c.waitLat.Since(start)

	var once sync.Once
	return func() {
		once.Do(func() {
			took := time.Since(start)
			c.mu.Lock()
			cs.inflight--
			// EWMA with alpha 1/8: cheap, integer-only smoothing of the
			// residence time that feeds the shed hint.
			if c.ewmaService == 0 {
				c.ewmaService = took
			} else {
				c.ewmaService += (took - c.ewmaService) / 8
			}
			c.mu.Unlock()
			c.depth.Add(-1)
		})
	}, nil
}

// drainHintLocked estimates when a slot frees: the class's backlog
// divided by its parallelism, at the smoothed per-op residence time.
func (c *Controller) drainHintLocked(cs *classState) time.Duration {
	svc := c.ewmaService
	if svc <= 0 {
		svc = c.opts.RetryAfterMin
	}
	// A full class drains one slot per svc on average; hint half a
	// residence time so retries land as slots open rather than after
	// the whole queue turns over.
	return c.clampHint(svc / 2)
}

func (c *Controller) clampHint(d time.Duration) time.Duration {
	if d < c.opts.RetryAfterMin {
		return c.opts.RetryAfterMin
	}
	if d > c.opts.RetryAfterMax {
		return c.opts.RetryAfterMax
	}
	return d
}

// Depth reports currently admitted work (all classes). Diagnostic.
func (c *Controller) Depth() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.classes {
		n += c.classes[i].inflight
	}
	return n
}

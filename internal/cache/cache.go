// Package cache is the read-through, invalidation-aware caching layer for
// the federated name space. It wraps provider contexts opened during
// InitialContext resolution so that repeated Lookup/List/GetAttributes/
// Search operations — including the CannotProceedError continuations that
// stitch federation hops together — are served locally instead of costing
// a wire RPC per operation.
//
// Coherence is per provider root:
//
//   - Event mode: where the provider implements core.EventContext (Jini
//     natively, HDNS via pluglet events, the in-memory provider), the cache
//     registers one subtree Watch at the root and evicts entries as
//     added/removed/changed/renamed events arrive. This is safe exactly
//     where the paper's §5.1 lease/event machinery exists: the provider
//     guarantees event delivery for the lifetime of the registration, and
//     reports the registration's death (core.EventWatchLost) when the
//     connection is torn.
//   - TTL mode: providers without events (DNS, LDAP, filesystem) get
//     time-based expiry. A provider may advise per-name TTLs by
//     implementing TTLAdvisor (the DNS provider reports record TTLs).
//   - Degradation: when a watch dies the affected root is flushed and
//     flipped to TTL mode, and a background goroutine re-registers the
//     watch with capped exponential backoff (internal/retry), each attempt
//     gated by the endpoint's circuit breaker. On success the root is
//     flushed once more and returns to event mode.
//   - Serve-stale: when a refill fails with a transport-class error (the
//     backend is unreachable or its breaker is open) and an expired entry
//     is still within its stale window (Config.StaleTTL), the cache serves
//     the stale value instead of the error, extends its freshness briefly,
//     and marks the serve in metrics and traces. Disable with
//     Config.DisableServeStale.
//
// Negative results (core.ErrNotFound) are cached briefly, and concurrent
// misses for one key are collapsed into a single provider call
// (singleflight), so a thundering herd costs one RPC.
//
// The cache decorates the InitialContext's held roots, one per (scheme,
// authority): it keeps an entry table and a watch around the root the
// layer below returns, and opens, re-dials and closes none of them. When
// the InitialContext opens a dead root again, the cache root moves to the
// new one, its entries dropped and its watch moved; while the root cannot
// be opened, it answers only from what it holds (serve-stale).
//
// Write operations are never cached: they pass straight through to the
// provider (preserving atomic Bind semantics) and then invalidate every
// entry whose name overlaps the written name.
package cache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/obs"
	"gondi/internal/retry"
)

// Process-wide cache metrics (every Cache instance records into the same
// family; per-instance numbers remain available via Stats).
var (
	mHits = obs.Default.Counter("gondi_cache_hits_total",
		"Positive cache hits.")
	mNegHits = obs.Default.Counter("gondi_cache_negative_hits_total",
		"Cached ErrNotFound answers served.")
	mMisses = obs.Default.Counter("gondi_cache_misses_total",
		"Cache fills that went to the provider.")
	mCollapsed = obs.Default.Counter("gondi_cache_collapsed_total",
		"Calls that piggybacked on an in-flight fill (singleflight).")
	mEvictions = obs.Default.Counter("gondi_cache_evictions_total",
		"Invalidation-driven entry removals (writes, events, flushes, LRU).")
	mExpirations = obs.Default.Counter("gondi_cache_expirations_total",
		"Entries whose TTL lapsed (removed, or retained for serve-stale).")
	mWatchLosses = obs.Default.Counter("gondi_cache_watch_losses_total",
		"Invalidation watches lost (root degraded to TTL mode).")
	mRewatches = obs.Default.Counter("gondi_cache_rewatches_total",
		"Invalidation watches successfully re-registered after a loss.")
	mStaleServes = obs.Default.Counter("gondi_cache_stale_serves_total",
		"Expired entries served because the refill hit a transport failure.")
)

// Config is the cache configuration. It aliases core.CacheConfig so that
// core.Open's WithCache option and this package share one type without an
// import cycle.
type Config = core.CacheConfig

// Defaults applied for zero Config fields.
const (
	// DefaultTTL bounds positive-entry staleness in TTL mode.
	DefaultTTL = 30 * time.Second
	// DefaultNegativeTTL bounds how long ErrNotFound is remembered.
	DefaultNegativeTTL = 5 * time.Second
	// DefaultMaxEntries bounds each root's entry count (LRU beyond it).
	DefaultMaxEntries = 4096
	// DefaultStaleTTL bounds how long past expiry a positive entry remains
	// eligible for degraded serve-stale when the backend is unreachable.
	DefaultStaleTTL = 2 * time.Minute
	// backstopTTL bounds event-mode entries: events keep them fresh, so
	// expiry exists only to cap memory held for names never touched again.
	backstopTTL = time.Hour
	// staleExtension is the freshness a stale serve grants the entry: long
	// enough that a burst during an outage is absorbed by the ordinary hit
	// path instead of re-probing per call, short enough that recovery is
	// noticed quickly once the endpoint heals.
	staleExtension = time.Second
)

// rewatchPolicy drives watch re-registration after a loss: effectively
// unbounded attempts (the cache's Close cancels the loop), capped backoff.
var rewatchPolicy = retry.Policy{
	MaxAttempts: 1 << 30,
	BaseDelay:   50 * time.Millisecond,
	MaxDelay:    5 * time.Second,
}

// TTLAdvisor is implemented by provider contexts that know how long a
// name's data may be cached (the DNS provider reports the minimum record
// TTL it saw for the name; the LDAP provider an operator-configured value).
// Structural: providers implement it without importing this package.
type TTLAdvisor interface {
	AdviseTTL(name string) (time.Duration, bool)
}

// Register installs this package as the middleware behind
// core.Open(core.WithCache(...)). Call it once alongside the provider
// Register calls.
func Register() {
	core.RegisterCacheFactory(func(cfg core.CacheConfig, env map[string]any) core.Middleware {
		return New(cfg, env)
	})
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	// Hits counts positive cache hits, NegativeHits cached ErrNotFound
	// answers, Misses fills that went to the provider.
	Hits, NegativeHits, Misses int64
	// Collapsed counts calls that piggybacked on another caller's
	// in-flight fill instead of issuing their own RPC.
	Collapsed int64
	// Evictions counts invalidation-driven removals (writes, events,
	// flushes, LRU); Expirations counts TTL-driven removals.
	Evictions, Expirations int64
	// WatchLosses counts event-channel failures; Rewatches counts
	// successful re-registrations after a loss.
	WatchLosses, Rewatches int64
	// StaleServes counts expired entries served in degraded mode because
	// the refill failed with a transport-class error.
	StaleServes int64
}

// Cache implements core.Middleware. One Cache serves one InitialContext
// (one environment); roots — one per (scheme, authority) plus one per
// wrapped default context — each hold their own entry table and watch.
type Cache struct {
	cfg Config

	closeCtx    context.Context
	closeCancel context.CancelFunc
	wg          sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	roots   map[string]*root
	wrapSeq int

	hits, negHits, misses, collapsed atomic.Int64
	evictions, expirations           atomic.Int64
	watchLosses, rewatches           atomic.Int64
	staleServes                      atomic.Int64
}

var _ core.Middleware = (*Cache)(nil)

// New builds a cache middleware with the given configuration; env is the
// InitialContext's environment, as core.CacheFactory passes it, and the
// cache keeps nothing of it. Zero Config fields take the package defaults.
func New(cfg Config, env map[string]any) *Cache {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.NegativeTTL <= 0 {
		cfg.NegativeTTL = DefaultNegativeTTL
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.StaleTTL <= 0 {
		cfg.StaleTTL = DefaultStaleTTL
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Cache{
		cfg:         cfg,
		closeCtx:    ctx,
		closeCancel: cancel,
		roots:       map[string]*root{},
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		NegativeHits: c.negHits.Load(),
		Misses:       c.misses.Load(),
		Collapsed:    c.collapsed.Load(),
		Evictions:    c.evictions.Load(),
		Expirations:  c.expirations.Load(),
		WatchLosses:  c.watchLosses.Load(),
		Rewatches:    c.rewatches.Load(),
		StaleServes:  c.staleServes.Load(),
	}
}

// Config returns the effective configuration (defaults filled in).
func (c *Cache) Config() Config { return c.cfg }

// OpenURLNext implements core.Middleware: it resolves rawURL through next
// to the InitialContext's held root and returns the caching wrapper of
// that root's cache root plus the URL's path as the remaining name. A
// held root other than the one the cache root wraps (the InitialContext
// opened it again) replaces it. When next fails because the backend does
// not answer (failover.TransportClass), an existing cache root still
// answers from what it holds; any other failure is next's to report.
func (c *Cache) OpenURLNext(ctx context.Context, rawURL string, env map[string]any, next core.OpenURLFunc) (core.Context, core.Name, error) {
	inner, rest, err := next(ctx, rawURL, env)
	key := rootKey(rawURL)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, core.Name{}, core.ErrClosed
	}
	r := c.roots[key]
	if r == nil && err == nil {
		r = c.newRoot(strings.Clone(key), false)
		c.roots[r.key] = r
	}
	c.mu.Unlock()
	if err == nil {
		r.use(ctx, inner)
		return r.wrapper, rest, nil
	}
	if r == nil || !failover.TransportClass(err) {
		return nil, core.Name{}, err
	}
	u, perr := core.ParseURLName(rawURL)
	if perr != nil {
		return nil, core.Name{}, err
	}
	r.openFailed(err)
	return r.wrapper, u.Path, nil
}

// rootKey is rawURL's "scheme://authority", sliced out of it, so finding
// a cache root allocates nothing.
func rootKey(rawURL string) string {
	i := strings.Index(rawURL, "://")
	if i < 0 {
		return rawURL
	}
	if j := strings.IndexByte(rawURL[i+3:], '/'); j >= 0 {
		return rawURL[:i+3+j]
	}
	return rawURL
}

// WrapContext implements core.Middleware: it gives an already-open context
// (the InitialContext's default context) its own cache root, which owns
// the context and closes it.
func (c *Cache) WrapContext(inner core.Context) core.Context {
	c.mu.Lock()
	c.wrapSeq++
	key := fmt.Sprintf("wrapped:%d", c.wrapSeq)
	r := c.newRoot(key, true)
	c.roots[key] = r
	c.mu.Unlock()
	r.use(context.Background(), inner)
	return r.wrapper
}

// Wrap is WrapContext typed for tests and direct embedding: it returns the
// concrete caching wrapper around an existing context.
func (c *Cache) Wrap(inner core.Context) *CachedContext {
	return c.WrapContext(inner).(*CachedContext)
}

// Close implements core.Middleware: it cancels background re-registration,
// deregisters every watch, and closes the contexts it was given through
// Wrap or WrapContext; the held roots stay the InitialContext's.
func (c *Cache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	roots := make([]*root, 0, len(c.roots))
	for _, r := range c.roots {
		roots = append(roots, r)
	}
	c.roots = map[string]*root{}
	c.mu.Unlock()
	c.closeCancel()
	var err error
	for _, r := range roots {
		if e := r.close(); e != nil && err == nil {
			err = e
		}
	}
	c.wg.Wait()
	return err
}

// dropRoot detaches a root closed via its wrapper.
func (c *Cache) dropRoot(key string) {
	c.mu.Lock()
	delete(c.roots, key)
	c.mu.Unlock()
}

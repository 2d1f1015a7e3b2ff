package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/obs"
	"gondi/internal/retry"
)

// root is the per-(scheme, authority) cache state: one provider context,
// one entry table, one invalidation watch.
type root struct {
	c       *Cache
	key     string
	owned   bool // inner came through Wrap/WrapContext, so close closes it
	wrapper *CachedContext

	mu    sync.Mutex
	inner core.Context
	// down, while the InitialContext cannot open the root again, stands in
	// for inner: it fails every operation, so reads are answered from the
	// entry table alone.
	down       *unopened
	entries    map[string]*entry
	lru        *list.List // of *entry; front = most recently used
	flight     map[string]*call
	gen        uint64 // bumped by every invalidation; fills from an older gen are dropped
	eventMode  bool
	unwatch    func()
	rewatching bool
	closed     bool
}

// entry is one cached operation result. err is non-nil for cached
// negative (ErrNotFound) and continuation (*CannotProceedError) results.
type entry struct {
	key     string
	base    core.Name // the name the result depends on, for overlap eviction
	val     any
	err     error
	expires time.Time
	// staleUntil bounds degraded serve-stale: past expires but before
	// staleUntil the entry may still be served when a refill fails with a
	// transport-class error. Equal to expires for entries never eligible
	// (negative results).
	staleUntil time.Time
	elem       *list.Element
}

// call is an in-flight fill other callers wait on (singleflight).
type call struct {
	done chan struct{}
	val  any
	err  error
}

// newRoot is an empty root; the caller points it at its provider context
// with use.
func (c *Cache) newRoot(key string, owned bool) *root {
	r := &root{
		c:       c,
		key:     key,
		owned:   owned,
		entries: map[string]*entry{},
		lru:     list.New(),
		flight:  map[string]*call{},
	}
	r.wrapper = newView(r, core.Name{})
	return r
}

// getInner is the context operations reach (see providerLocked).
func (r *root) getInner() core.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.providerLocked()
}

// providerLocked is the provider context, or down while the root cannot
// be opened. Caller holds r.mu.
func (r *root) providerLocked() core.Context {
	if r.down != nil {
		return r.down
	}
	return r.inner
}

// use points the root at inner, the provider context of this operation.
// Usually it is the one already wrapped. Otherwise it is the first, or
// the InitialContext opened the root again: the entries filled from the
// old one are dropped and the watch moves to the new one.
func (r *root) use(ctx context.Context, inner core.Context) {
	r.mu.Lock()
	if (r.inner == inner && r.down == nil) || r.closed {
		r.mu.Unlock()
		return
	}
	r.inner, r.down = inner, nil
	unwatch := r.unwatch
	r.unwatch, r.eventMode = nil, false
	r.mu.Unlock()
	r.flushAll()
	if unwatch != nil {
		unwatch()
	}
	if r.watch(ctx, inner) != nil {
		r.rewatch()
	}
}

// openFailed records that the InitialContext could not open the root
// again: until it can, every operation fails with err, and reads are
// answered from the entry table alone (serve-stale), never filled.
func (r *root) openFailed(err error) {
	d := &unopened{err: err}
	d.Doer = d
	r.mu.Lock()
	r.down = d
	r.mu.Unlock()
}

// unopened stands in for a root the InitialContext could not open: every
// operation fails with the open's error.
type unopened struct {
	core.BatchOpContext
	err error
}

func (d *unopened) Do(context.Context, core.Op) (core.Result, error) { return core.Result{}, d.err }
func (d *unopened) NameInNamespace() (string, error)                 { return "", d.err }
func (d *unopened) Environment() map[string]any                      { return nil }
func (d *unopened) Close() error                                     { return nil }

// cachedOp is the read path: serve from the entry table, else collapse
// into any in-flight fill for the same key, else fill from the provider
// and (when the result is cacheable) remember it.
func (r *root) cachedOp(ctx context.Context, key string, base core.Name, fill func(inner core.Context) (any, error)) (any, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	now := time.Now()
	hasStale := false
	r.mu.Lock()
	if r.closed {
		inner := r.providerLocked()
		r.mu.Unlock()
		return fill(inner)
	}
	if e, ok := r.entries[key]; ok {
		if now.Before(e.expires) {
			r.lru.MoveToFront(e.elem)
			val, err := e.val, e.err
			r.mu.Unlock()
			if err != nil {
				if errors.Is(err, core.ErrNotFound) {
					r.c.negHits.Add(1)
					mNegHits.Inc()
					obs.CacheEvent(ctx, "negative-hit")
				} else {
					r.c.hits.Add(1)
					mHits.Inc()
					obs.CacheEvent(ctx, "hit")
				}
				return nil, err
			}
			r.c.hits.Add(1)
			mHits.Inc()
			obs.CacheEvent(ctx, "hit")
			return val, nil
		}
		r.c.expirations.Add(1)
		mExpirations.Inc()
		if !r.c.cfg.DisableServeStale && now.Before(e.staleUntil) {
			// Expired but inside the stale window: keep it as the degraded-
			// mode fallback. A successful fill below replaces it; a
			// transport failure serves it (serveStale).
			hasStale = true
		} else {
			r.removeLocked(e)
		}
	}
	if cl, ok := r.flight[key]; ok {
		inner := r.providerLocked()
		r.mu.Unlock()
		r.c.collapsed.Add(1)
		mCollapsed.Inc()
		obs.CacheEvent(ctx, "collapsed")
		select {
		case <-cl.done:
			// If the leader was aborted by its own context while ours is
			// still alive, its error is not ours to inherit: fill directly.
			if cl.err != nil && ctx.Err() == nil &&
				(errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)) {
				return fill(inner)
			}
			return cl.val, cl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	r.flight[key] = cl
	inner := r.providerLocked()
	gen := r.gen
	r.mu.Unlock()

	r.c.misses.Add(1)
	mMisses.Inc()
	obs.CacheEvent(ctx, "miss")
	val, err := fill(inner)
	staleServed := false
	if err != nil && hasStale {
		if sv, serr, ok := r.serveStale(key, err); ok {
			obs.CacheEvent(ctx, "stale")
			val, err, staleServed = sv, serr, true
		}
	}
	cl.val, cl.err = val, err

	r.mu.Lock()
	delete(r.flight, key)
	if !r.closed && r.gen == gen && !staleServed {
		if exp, ok := r.cacheable(base, val, err); ok {
			e := &entry{key: key, base: base, val: val, err: err, expires: exp, staleUntil: exp}
			if r.staleEligible(err) {
				e.staleUntil = exp.Add(r.c.cfg.StaleTTL)
			}
			r.insertLocked(e)
		}
	}
	r.mu.Unlock()
	close(cl.done)
	return val, err
}

// staleEligible reports whether an entry with this result error may later
// be served stale: positive results and inert federation continuations
// yes, cached ErrNotFound no (a stale "does not exist" is an invented
// answer, not a degraded one).
func (r *root) staleEligible(err error) bool {
	if err == nil {
		return true
	}
	var cpe *core.CannotProceedError
	return errors.As(err, &cpe)
}

// serveStale serves an expired entry after a failed refill, provided the
// failure was transport-class (failover.TransportClass: an admission shed
// in particular is exactly the moment a slightly stale answer beats
// piling more load onto the saturated server) and the entry is still
// inside its stale window. The entry's freshness is extended briefly
// (capped by the window) so a burst during the outage rides the ordinary
// hit path instead of re-probing the dead backend per call.
func (r *root) serveStale(key string, fillErr error) (any, error, bool) {
	if !failover.TransportClass(fillErr) {
		return nil, nil, false
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok || r.closed || !now.Before(e.staleUntil) {
		return nil, nil, false
	}
	exp := now.Add(staleExtension)
	if exp.After(e.staleUntil) {
		exp = e.staleUntil
	}
	e.expires = exp
	r.lru.MoveToFront(e.elem)
	r.c.staleServes.Add(1)
	mStaleServes.Inc()
	return e.val, e.err, true
}

// cacheable decides whether a fill result may be remembered and until
// when. Positive results and federation continuations get the mode TTL;
// ErrNotFound gets the negative TTL; other errors are never cached.
func (r *root) cacheable(base core.Name, val any, err error) (time.Time, bool) {
	now := time.Now()
	if err == nil {
		return now.Add(r.entryTTLLocked(base.String())), true
	}
	if errors.Is(err, core.ErrNotFound) {
		if r.c.cfg.DisableNegative {
			return time.Time{}, false
		}
		return now.Add(r.c.cfg.NegativeTTL), true
	}
	var cpe *core.CannotProceedError
	if errors.As(err, &cpe) {
		// Continuations are cacheable only when the boundary object is
		// inert data (a URL string or a Reference); a live Context would
		// pin one specific connection into the cache.
		switch cpe.Resolved.(type) {
		case string, *core.Reference:
			return now.Add(r.entryTTLLocked(base.String())), true
		}
	}
	return time.Time{}, false
}

// entryTTLLocked returns the positive-entry lifetime. In event mode the
// watch keeps entries coherent, so only the backstop applies; in TTL mode
// the provider may advise per-name freshness (DNS record TTLs), else the
// configured default applies. Caller holds r.mu.
func (r *root) entryTTLLocked(name string) time.Duration {
	if r.eventMode {
		return backstopTTL
	}
	if adv, ok := r.inner.(TTLAdvisor); ok {
		if d, ok := adv.AdviseTTL(name); ok && d > 0 {
			return d
		}
	}
	return r.c.cfg.TTL
}

func (r *root) insertLocked(e *entry) {
	if old, ok := r.entries[e.key]; ok {
		r.removeLocked(old)
	}
	e.elem = r.lru.PushFront(e)
	r.entries[e.key] = e
	for r.lru.Len() > r.c.cfg.MaxEntries {
		back := r.lru.Back()
		r.removeLocked(back.Value.(*entry))
		r.c.evictions.Add(1)
		mEvictions.Inc()
	}
}

func (r *root) removeLocked(e *entry) {
	delete(r.entries, e.key)
	r.lru.Remove(e.elem)
}

// invalidate drops every entry whose base name overlaps one of the given
// names (ancestor or descendant — a write at "a/b" stales both a cached
// List("a") and a cached Lookup("a/b/c")) and fences in-flight fills.
func (r *root) invalidate(names ...string) {
	parsed := make([]core.Name, 0, len(names))
	for _, s := range names {
		n, err := core.ParseName(s)
		if err != nil {
			r.flushAll()
			return
		}
		parsed = append(parsed, n)
	}
	r.mu.Lock()
	r.gen++
	var victims []*entry
	for _, e := range r.entries {
		for _, n := range parsed {
			if e.base.StartsWith(n) || n.StartsWith(e.base) {
				victims = append(victims, e)
				break
			}
		}
	}
	for _, e := range victims {
		r.removeLocked(e)
	}
	r.mu.Unlock()
	r.c.evictions.Add(int64(len(victims)))
	mEvictions.Add(int64(len(victims)))
}

// flushAll empties the root's entry table and fences in-flight fills:
// the root's own name overlaps every entry.
func (r *root) flushAll() { r.invalidate("") }

// onEvent is the invalidation listener registered on inner.
func (r *root) onEvent(inner core.Context, ev core.NamingEvent) {
	switch ev.Type {
	case core.EventWatchLost:
		r.watchLost(inner)
	case core.EventObjectRenamed:
		r.invalidate(ev.OldName, ev.Name)
	default:
		r.invalidate(ev.Name)
	}
}

// watchLost flips the root to TTL mode, flushes it (nothing cached under
// the dead watch can be trusted), and starts backoff re-registration. A
// loss reported by a root the cache root no longer wraps changes nothing.
func (r *root) watchLost(inner core.Context) {
	r.mu.Lock()
	if r.closed || !r.eventMode || r.inner != inner {
		r.mu.Unlock()
		return
	}
	r.eventMode = false
	r.unwatch = nil
	r.mu.Unlock()
	r.c.watchLosses.Add(1)
	mWatchLosses.Inc()
	r.flushAll()
	r.rewatch()
}

// rewatch starts the re-registration loop unless one runs or the root is
// closed (the loop is added to the cache's wait group under r.mu, so
// Close, which closes every root before it waits, never misses it).
func (r *root) rewatch() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rewatching || r.closed {
		return
	}
	r.rewatching = true
	r.c.wg.Add(1)
	go r.rewatchLoop()
}

// rewatchLoop re-registers the invalidation watch with capped exponential
// backoff until it succeeds or the cache closes. Every error is treated as
// transient — including breaker.ErrOpen, so the loop keeps backing off
// through an open circuit instead of dying: it exists precisely to outlast
// partitions and restarts. The breaker (shared per root key) keeps the
// attempts from hammering a dead endpoint: while it is open, iterations
// fail fast without touching the wire. Each attempt watches the root the
// cache root wraps at that moment, so a root the InitialContext opened
// again is the one watched.
func (r *root) rewatchLoop() {
	defer r.c.wg.Done()
	br := breaker.For("cache:" + r.key)
	err := retry.DoClassify(r.c.closeCtx, rewatchPolicy,
		func(error) bool { return true },
		func() error {
			r.mu.Lock()
			done, inner := r.closed || r.eventMode, r.inner
			r.mu.Unlock()
			if done {
				return nil // closed, or watched again by use
			}
			if err := br.Allow(); err != nil {
				return err
			}
			err := r.watch(r.c.closeCtx, inner)
			if r.c.closeCtx.Err() != nil {
				// Cache shutdown is not backend health: release the
				// probe slot without moving the breaker.
				br.Cancel()
			} else {
				br.Record(err != nil)
			}
			return err
		})
	r.mu.Lock()
	r.rewatching = false
	r.mu.Unlock()
	if err != nil {
		return // cache closed before the watch came back
	}
	r.c.rewatches.Add(1)
	mRewatches.Inc()
}

// errSuperseded fails a watch registered on a root the cache root stopped
// wrapping while the registration ran.
var errSuperseded = errors.New("cache: watched root was replaced")

// watch registers the invalidation watch on inner, when events are on and
// inner supports them, and installs it if inner is still the wrapped root
// and no other watch was installed meanwhile. Installing flushes the
// table: an entry filled before the watch existed is covered by no event.
func (r *root) watch(ctx context.Context, inner core.Context) error {
	ec, ok := inner.(core.EventContext)
	if !ok || r.c.cfg.DisableEvents {
		return nil
	}
	unwatch, err := ec.Watch(ctx, "", core.ScopeSubtree, func(ev core.NamingEvent) { r.onEvent(inner, ev) })
	if errors.Is(err, core.ErrNotSupported) {
		return nil // a decorator's surface over a provider without events
	}
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed || r.eventMode || r.inner != inner {
		superseded := !r.closed && !r.eventMode
		r.mu.Unlock()
		unwatch()
		if superseded {
			return errSuperseded
		}
		return nil
	}
	r.eventMode, r.unwatch = true, unwatch
	r.mu.Unlock()
	r.flushAll()
	return nil
}

// close tears the root down: watch, entries, and — when the cache was
// given it through Wrap or WrapContext — the provider context.
func (r *root) close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	unwatch := r.unwatch
	r.unwatch = nil
	inner := r.inner
	r.entries = map[string]*entry{}
	r.lru.Init()
	r.mu.Unlock()
	r.c.dropRoot(r.key)
	if unwatch != nil {
		unwatch()
	}
	if r.owned {
		return inner.Close()
	}
	return nil
}

package cache

import (
	"context"
	"errors"
	"time"

	"gondi/internal/core"
	"gondi/internal/obs"
)

// batchPlan is the per-item outcome of classifying a batch against the
// entry table under one lock acquisition.
type batchPlan struct {
	// lead positions fill from the provider in one batched call; join
	// positions piggyback on another caller's in-flight fill.
	lead, join []int
	calls      map[int]*call // join position -> flight to wait on
	leadCalls  map[int]*call // lead position -> flight we own
	gen        uint64
	inner      core.Context
	closed     bool
}

// classify walks the entry table once for a whole batch: hits are written
// straight into out, everything else becomes a lead (we fill) or a join
// (someone else is filling the same key right now).
func (r *root) classify(ctx context.Context, keys []string, out []core.BatchResult, skip []bool) batchPlan {
	p := batchPlan{calls: map[int]*call{}, leadCalls: map[int]*call{}}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	p.gen = r.gen
	p.inner = r.providerLocked()
	if r.closed {
		p.closed = true
		for i := range keys {
			if !skip[i] {
				p.lead = append(p.lead, i)
			}
		}
		return p
	}
	for i, key := range keys {
		if skip[i] {
			continue
		}
		if key == "" { // unkeyable: always filled, never cached
			p.lead = append(p.lead, i)
			continue
		}
		if e, ok := r.entries[key]; ok && now.Before(e.expires) {
			r.lru.MoveToFront(e.elem)
			out[i] = core.BatchResult{Value: e.val, Err: e.err}
			skip[i] = true
			if e.err != nil && errors.Is(e.err, core.ErrNotFound) {
				r.c.negHits.Add(1)
				mNegHits.Inc()
				obs.CacheEvent(ctx, "negative-hit")
			} else {
				r.c.hits.Add(1)
				mHits.Inc()
				obs.CacheEvent(ctx, "hit")
			}
			continue
		}
		// Expired entries inside their stale window are left in place (the
		// unary path's serve-stale can still use them if our fill fails);
		// a successful fill below overwrites them.
		if cl, ok := r.flight[key]; ok {
			p.join = append(p.join, i)
			p.calls[i] = cl
			continue
		}
		cl := &call{done: make(chan struct{})}
		r.flight[key] = cl
		p.lead = append(p.lead, i)
		p.leadCalls[i] = cl
	}
	return p
}

// settle publishes one lead position's result: the flight completes, and
// cacheable results enter the entry table unless an invalidation fenced
// this fill's generation.
func (r *root) settle(p batchPlan, i int, key string, base core.Name, res core.BatchResult, ferr error) {
	cl := p.leadCalls[i]
	if cl == nil {
		return
	}
	cl.val, cl.err = res.Value, res.Err
	if ferr != nil {
		cl.val, cl.err = nil, ferr
	}
	r.mu.Lock()
	delete(r.flight, key)
	if ferr == nil && !r.closed && r.gen == p.gen {
		if exp, ok := r.cacheable(base, res.Value, res.Err); ok {
			e := &entry{key: key, base: base, val: res.Value, err: res.Err, expires: exp, staleUntil: exp}
			if r.staleEligible(res.Err) {
				e.staleUntil = exp.Add(r.c.cfg.StaleTTL)
			}
			r.insertLocked(e)
		}
	}
	r.mu.Unlock()
	close(cl.done)
}

// abortLeads completes every owned flight with err (used when the whole
// batched fill failed before producing per-item results).
func (r *root) abortLeads(p batchPlan, keys []string, err error) {
	for i, cl := range p.leadCalls {
		cl.err = err
		r.mu.Lock()
		delete(r.flight, keys[i])
		r.mu.Unlock()
		close(cl.done)
	}
}

// cachedBatch is the shared read path for LookupMany/GetAttributesMany:
// hits serve from the table, concurrent misses collapse into in-flight
// unary fills, and the remaining misses go to the provider as ONE batched
// call (fill, given the positions to fetch).
func (r *root) cachedBatch(
	ctx context.Context,
	keys []string, bases []core.Name, out []core.BatchResult, skip []bool,
	fill func(inner core.Context, idxs []int) ([]core.BatchResult, error),
) ([]core.BatchResult, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	p := r.classify(ctx, keys, out, skip)
	if len(p.lead) > 0 {
		for range p.lead {
			r.c.misses.Add(1)
			mMisses.Inc()
		}
		obs.CacheEvent(ctx, "miss")
		res, err := fill(p.inner, p.lead)
		if err != nil {
			if !p.closed {
				r.abortLeads(p, keys, err)
			}
			return nil, err
		}
		for k, i := range p.lead {
			out[i] = res[k]
			if !p.closed {
				r.settle(p, i, keys[i], bases[i], res[k], nil)
			}
		}
	}
	for _, i := range p.join {
		cl := p.calls[i]
		r.c.collapsed.Add(1)
		mCollapsed.Inc()
		obs.CacheEvent(ctx, "collapsed")
		select {
		case <-cl.done:
			// A leader aborted by its own context leaves its error behind;
			// it is not ours to inherit while our context is still alive.
			if cl.err != nil && ctx.Err() == nil &&
				(errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)) {
				if res, err := fill(p.inner, []int{i}); err != nil {
					out[i] = core.BatchResult{Err: err}
				} else {
					out[i] = res[0]
				}
				continue
			}
			out[i] = core.BatchResult{Value: cl.val, Err: cl.err}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// readMany is LookupMany and GetAttributesMany: cache hits are served
// locally, and every miss rides one batched provider call (native batch
// frames when the provider supports them, a loop otherwise), each miss
// settling its own singleflight entry. Keys are the unary reads' keys, and
// served attribute sets are cloned exactly as the unary path clones.
func (cc *CachedContext) readMany(ctx context.Context, op core.Op) ([]core.BatchResult, error) {
	if inner := cc.r.getInner(); !core.Supports(inner, op) {
		res, err := core.Do(ctx, inner, op)
		return res.Batch, err
	}
	names := op.Names
	out := make([]core.BatchResult, len(names))
	skip := make([]bool, len(names))
	keys := make([]string, len(names))
	bases := make([]core.Name, len(names))
	wire := make([]string, len(names)) // the name the provider sees
	for i, name := range names {
		full, ok := cc.fullName(name)
		if !ok {
			wire[i] = name // unkeyable: pass through raw, uncached
			continue
		}
		if op.Kind == core.OpLookupMany && name == "" {
			out[i] = core.BatchResult{Value: newView(cc.r, cc.base)}
			skip[i] = true
			continue
		}
		keys[i] = readKey(op.Item(i), full)
		bases[i] = full
		wire[i] = full.String()
	}
	res, err := cc.r.cachedBatch(ctx, keys, bases, out, skip,
		func(inner core.Context, idxs []int) ([]core.BatchResult, error) {
			sub := op
			sub.Names = make([]string, len(idxs))
			for k, i := range idxs {
				sub.Names[k] = wire[i]
			}
			res, err := core.Do(ctx, inner, sub)
			return res.Batch, err
		})
	if err != nil || op.Kind == core.OpLookupMany {
		return res, err
	}
	for i := range res {
		if a, ok := res[i].Value.(*core.Attributes); ok {
			res[i].Value = a.Clone()
		}
	}
	return res, nil
}

// bindMany is BindMany: writes pass through to the provider in one
// batched call, then every successfully bound name invalidates
// overlapping entries (one table sweep for the whole batch).
func (cc *CachedContext) bindMany(ctx context.Context, reqs []core.BindRequest) ([]core.BatchResult, error) {
	resolved := make([]core.BindRequest, len(reqs))
	for i, r := range reqs {
		resolved[i] = r
		if full, ok := cc.fullName(r.Name); ok {
			resolved[i].Name = full.String()
		}
	}
	out, err := core.BindMany(ctx, cc.r.getInner(), resolved)
	if err != nil {
		return nil, err
	}
	var written []string
	for i := range out {
		if out[i].Err == nil {
			written = append(written, resolved[i].Name)
		}
	}
	if len(written) > 0 {
		cc.r.invalidate(written...)
	}
	return out, nil
}

package jinisp

import (
	"context"

	"gondi/internal/core"
	"gondi/internal/jini"
)

var _ core.BatchContext = (*Context)(nil)

// batchErr maps a whole-batch failure (transport, shed, ctx) to the error
// the caller should see. Per-item wire errors go through commErr instead.
func (c *Context) batchErr(ctx context.Context, op string, err error) error {
	if cerr := core.CtxErr(ctx); cerr != nil {
		return cerr
	}
	return core.Errf(op, "", c.commErr(err))
}

// batchMiss replays the unary slow path for a name that matched nothing:
// federation continuation, virtual intermediate context, or not-found.
// cached carries one allBindings scan shared across every miss in the
// batch, so N misses cost one scan instead of N.
func (c *Context) batchMiss(ctx context.Context, op, name string, full core.Name, cached *[]jini.ServiceItem, asCtx bool) core.BatchResult {
	if err := c.checkPrefixes(ctx, full); err != nil {
		return core.BatchResult{Err: core.Errf(op, name, err)}
	}
	if *cached == nil {
		items, err := c.allBindings(ctx)
		if err != nil {
			if asCtx {
				return core.BatchResult{Err: core.Errf(op, name, err)}
			}
			// Unary GetAttributes treats a failed children scan as a
			// plain miss; keep that shape per item.
			return core.BatchResult{Err: core.Errf(op, name, core.ErrNotFound)}
		}
		if items == nil {
			items = []jini.ServiceItem{}
		}
		*cached = items
	}
	if prefixMatch(*cached, full) {
		if asCtx {
			return core.BatchResult{Value: c.child(full)}
		}
		return core.BatchResult{Value: &core.Attributes{}} // virtual context: no attrs
	}
	return core.BatchResult{Err: core.Errf(op, name, core.ErrNotFound)}
}

// prefixMatch reports whether any binding lives under path (the cached
// half of hasChildren).
func prefixMatch(items []jini.ServiceItem, path core.Name) bool {
	if path.IsEmpty() {
		return len(items) > 0
	}
	prefix := path.String() + "/"
	for i := range items {
		if len(itemName(&items[i])) > len(prefix) && itemName(&items[i])[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// LookupMany implements core.BatchContext: every resolvable name's fetch
// rides one batch frame against the LUS, and each item fails
// independently with the same typed error its unary Lookup would produce
// (including per-item federation continuations for URL names).
func (c *Context) LookupMany(ctx context.Context, names []string) ([]core.BatchResult, error) {
	if c.sh.Released() {
		return nil, core.Errf("lookupMany", "", core.ErrClosed)
	}
	out := make([]core.BatchResult, len(names))
	fulls := make([]core.Name, len(names))
	ts := make([]jini.ServiceTemplate, 0, len(names))
	idx := make([]int, 0, len(names)) // out positions that went on the wire
	for i, name := range names {
		full, err := c.full(ctx, name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.Errf("lookup", name, err)
			continue
		}
		if full.Equal(c.base) {
			out[i].Value = c.child(c.base)
			continue
		}
		fulls[i] = full
		ts = append(ts, jini.ServiceTemplate{ID: idFor(full.String())})
		idx = append(idx, i)
	}
	if len(ts) == 0 {
		return out, nil
	}
	matches, errs, err := c.sh.reg.LookupMany(ctx, ts, 1)
	if err != nil {
		return nil, c.batchErr(ctx, "lookupMany", err)
	}
	var bindings []jini.ServiceItem // lazy shared scan for miss handling
	for k := range matches {
		i := idx[k]
		if errs[k] != nil {
			out[i].Err = core.Errf("lookup", names[i], c.commErr(errs[k]))
			continue
		}
		if len(matches[k]) == 0 {
			out[i] = c.batchMiss(ctx, "lookup", names[i], fulls[i], &bindings, true)
			continue
		}
		item := &matches[k][0]
		if itemIsContext(item) {
			out[i].Value = c.child(fulls[i])
			continue
		}
		obj, oerr := itemObject(item)
		if oerr != nil {
			out[i].Err = core.Errf("lookup", names[i], oerr)
			continue
		}
		out[i].Value = obj
	}
	return out, nil
}

// BindMany implements core.BatchContext. In relaxed mode the existence
// checks ride one batch frame and the registrations another — two round
// trips for N binds. Strict mode takes the per-item lock path (EM locks
// serialize writers per parent context; batching under one lock would
// change the atomicity unit), and proxy mode keeps the proxy's per-item
// test-and-set, so both fall back to the unary loop.
func (c *Context) BindMany(ctx context.Context, reqs []core.BindRequest) ([]core.BatchResult, error) {
	if c.sh.Released() {
		return nil, core.Errf("bindMany", "", core.ErrClosed)
	}
	out := make([]core.BatchResult, len(reqs))
	if c.sh.strict || c.sh.proxy != nil {
		for i, r := range reqs {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = c.BindAttrs(ctx, r.Name, r.Obj, r.Attrs)
		}
		return out, nil
	}
	fulls := make([]core.Name, len(reqs))
	items := make([]jini.ServiceItem, 0, len(reqs))
	ts := make([]jini.ServiceTemplate, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, r := range reqs {
		full, err := c.full(ctx, r.Name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.Errf("bind", r.Name, err)
			continue
		}
		if full.IsEmpty() {
			out[i].Err = core.Errf("bind", r.Name, core.ErrInvalidNameEmpty)
			continue
		}
		if err := c.checkPrefixes(ctx, full); err != nil {
			out[i].Err = core.Errf("bind", r.Name, err)
			continue
		}
		item, err := itemFor(full, r.Obj, r.Attrs, false)
		if err != nil {
			out[i].Err = core.Errf("bind", r.Name, err)
			continue
		}
		fulls[i] = full
		items = append(items, item)
		ts = append(ts, jini.ServiceTemplate{ID: item.ID})
		idx = append(idx, i)
	}
	if len(items) == 0 {
		return out, nil
	}
	matches, errs, err := c.sh.reg.LookupMany(ctx, ts, 1)
	if err != nil {
		return nil, c.batchErr(ctx, "bindMany", err)
	}
	regItems := make([]jini.ServiceItem, 0, len(items))
	regIdx := make([]int, 0, len(items))
	for k := range matches {
		i := idx[k]
		if errs[k] != nil {
			out[i].Err = core.Errf("bind", reqs[i].Name, c.commErr(errs[k]))
			continue
		}
		if len(matches[k]) > 0 {
			out[i].Err = core.Errf("bind", reqs[i].Name, core.ErrAlreadyBound)
			continue
		}
		regItems = append(regItems, items[k])
		regIdx = append(regIdx, i)
	}
	if len(regItems) == 0 {
		return out, nil
	}
	regs, rerrs, err := c.sh.reg.RegisterMany(ctx, regItems, c.sh.lease)
	if err != nil {
		return nil, c.batchErr(ctx, "bindMany", err)
	}
	for k := range regs {
		i := regIdx[k]
		if rerrs[k] != nil {
			out[i].Err = core.Errf("bind", reqs[i].Name, c.commErr(rerrs[k]))
			continue
		}
		c.sh.lrm.Manage(c.sh.reg, regs[k].ID, c.sh.lease)
	}
	return out, nil
}

// GetAttributesMany implements core.BatchContext: one batch frame fetches
// every named item; attributes project client-side exactly as the unary
// GetAttributes does.
func (c *Context) GetAttributesMany(ctx context.Context, names []string, attrIDs ...string) ([]core.BatchResult, error) {
	if c.sh.Released() {
		return nil, core.Errf("getAttributesMany", "", core.ErrClosed)
	}
	out := make([]core.BatchResult, len(names))
	fulls := make([]core.Name, len(names))
	ts := make([]jini.ServiceTemplate, 0, len(names))
	idx := make([]int, 0, len(names))
	for i, name := range names {
		full, err := c.full(ctx, name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.Errf("getAttributes", name, err)
			continue
		}
		fulls[i] = full
		ts = append(ts, jini.ServiceTemplate{ID: idFor(full.String())})
		idx = append(idx, i)
	}
	if len(ts) == 0 {
		return out, nil
	}
	matches, errs, err := c.sh.reg.LookupMany(ctx, ts, 1)
	if err != nil {
		return nil, c.batchErr(ctx, "getAttributesMany", err)
	}
	var bindings []jini.ServiceItem
	for k := range matches {
		i := idx[k]
		if errs[k] != nil {
			out[i].Err = core.Errf("getAttributes", names[i], c.commErr(errs[k]))
			continue
		}
		if len(matches[k]) == 0 {
			out[i] = c.batchMiss(ctx, "getAttributes", names[i], fulls[i], &bindings, false)
			continue
		}
		out[i].Value = itemAttrs(&matches[k][0]).Select(attrIDs...)
	}
	return out, nil
}

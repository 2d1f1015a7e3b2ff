package hdnssp

import (
	"context"

	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/rpc"
)

var _ core.BatchContext = (*Context)(nil)

// batchErr maps a whole-batch failure (transport, shed, ctx) to the error
// the caller should see. Per-item wire errors go through mapErr instead.
func (c *Context) batchErr(ctx context.Context, op string, err error) error {
	if cerr := core.CtxErr(ctx); cerr != nil {
		return cerr
	}
	return core.Errf(op, "", rpc.CoreError(c.sh.url, err))
}

// lookupResult converts one wire lookup outcome into the value Lookup
// would have returned for the same name.
func (c *Context) lookupResult(ctx context.Context, name string, full core.Name, rsp hdns.BatchRsp) core.BatchResult {
	if rsp.Err != nil {
		return core.BatchResult{Err: core.Errf("lookup", name, c.mapErr(ctx, rsp.Err, full))}
	}
	v := rsp.Rsp.View
	if !v.Exists {
		if cpe := c.boundary(ctx, full); cpe != nil {
			return core.BatchResult{Err: cpe}
		}
		return core.BatchResult{Err: core.Errf("lookup", name, core.ErrNotFound)}
	}
	if v.IsCtx {
		return core.BatchResult{Value: c.child(full)}
	}
	obj, err := core.Unmarshal(v.Obj)
	if err != nil {
		return core.BatchResult{Err: core.Errf("lookup", name, err)}
	}
	return core.BatchResult{Value: obj}
}

// LookupMany implements core.BatchContext: every resolvable name rides
// one batch frame, and each item fails independently with the same typed
// error its unary Lookup would produce (including per-item federation
// continuations for URL names).
func (c *Context) LookupMany(ctx context.Context, names []string) ([]core.BatchResult, error) {
	if c.sh.Released() {
		return nil, core.Errf("lookupMany", "", core.ErrClosed)
	}
	out := make([]core.BatchResult, len(names))
	fulls := make([]core.Name, len(names))
	wireNames := make([][]string, 0, len(names))
	idx := make([]int, 0, len(names)) // out positions that went on the wire
	for i, name := range names {
		comps, full, err := c.full(ctx, name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.Errf("lookup", name, err)
			continue
		}
		fulls[i] = full
		wireNames = append(wireNames, comps)
		idx = append(idx, i)
	}
	if len(wireNames) == 0 {
		return out, nil
	}
	rsps, err := c.sh.client.LookupMany(ctx, wireNames)
	if err != nil {
		return nil, c.batchErr(ctx, "lookupMany", err)
	}
	for k, rsp := range rsps {
		i := idx[k]
		out[i] = c.lookupResult(ctx, names[i], fulls[i], rsp)
	}
	return out, nil
}

// BindMany implements core.BatchContext: one batch frame carries every
// bind, applied sequentially and atomically per item by the node.
func (c *Context) BindMany(ctx context.Context, reqs []core.BindRequest) ([]core.BatchResult, error) {
	if c.sh.Released() {
		return nil, core.Errf("bindMany", "", core.ErrClosed)
	}
	out := make([]core.BatchResult, len(reqs))
	fulls := make([]core.Name, len(reqs))
	binds := make([]hdns.BindManyOp, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, r := range reqs {
		comps, full, err := c.full(ctx, r.Name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.Errf("bind", r.Name, err)
			continue
		}
		data, err := core.Marshal(r.Obj)
		if err != nil {
			out[i].Err = core.Errf("bind", r.Name, err)
			continue
		}
		fulls[i] = full
		binds = append(binds, hdns.BindManyOp{
			Name:        comps,
			Obj:         data,
			Attrs:       r.Attrs.ToMap(),
			LeaseMillis: c.sh.lease.Milliseconds(),
		})
		idx = append(idx, i)
	}
	if len(binds) == 0 {
		return out, nil
	}
	rsps, err := c.sh.client.BindMany(ctx, binds)
	if err != nil {
		return nil, c.batchErr(ctx, "bindMany", err)
	}
	for k, rsp := range rsps {
		i := idx[k]
		if rsp.Err != nil {
			out[i].Err = core.Errf("bind", reqs[i].Name, c.mapErr(ctx, rsp.Err, fulls[i]))
			continue
		}
		c.startRenewal(binds[k].Name, fulls[i].String())
	}
	return out, nil
}

// GetAttributesMany implements core.BatchContext. HDNS serves attributes
// from the same node view a lookup reads, so the wire batch is a
// LookupMany with attribute projection applied client-side.
func (c *Context) GetAttributesMany(ctx context.Context, names []string, attrIDs ...string) ([]core.BatchResult, error) {
	if c.sh.Released() {
		return nil, core.Errf("getAttributesMany", "", core.ErrClosed)
	}
	out := make([]core.BatchResult, len(names))
	fulls := make([]core.Name, len(names))
	wireNames := make([][]string, 0, len(names))
	idx := make([]int, 0, len(names))
	for i, name := range names {
		comps, full, err := c.full(ctx, name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.Errf("getAttributes", name, err)
			continue
		}
		fulls[i] = full
		wireNames = append(wireNames, comps)
		idx = append(idx, i)
	}
	if len(wireNames) == 0 {
		return out, nil
	}
	rsps, err := c.sh.client.LookupMany(ctx, wireNames)
	if err != nil {
		return nil, c.batchErr(ctx, "getAttributesMany", err)
	}
	for k, rsp := range rsps {
		i := idx[k]
		if rsp.Err != nil {
			out[i].Err = core.Errf("getAttributes", names[i], c.mapErr(ctx, rsp.Err, fulls[i]))
			continue
		}
		v := rsp.Rsp.View
		if !v.Exists {
			if cpe := c.boundary(ctx, fulls[i]); cpe != nil {
				out[i].Err = cpe
				continue
			}
			out[i].Err = core.Errf("getAttributes", names[i], core.ErrNotFound)
			continue
		}
		out[i].Value = core.AttributesFromMap(v.Attrs).Select(attrIDs...)
	}
	return out, nil
}

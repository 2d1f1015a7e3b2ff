package hdnssp

import (
	"context"

	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/rpc"
)

// batchErr maps a whole-batch failure (transport, shed, ctx) to the error
// the caller should see. Per-item wire errors go through resolve instead.
func (c *Context) batchErr(ctx context.Context, op core.Op, err error) error {
	if cerr := core.CtxErr(ctx); cerr != nil {
		return cerr
	}
	return core.OpErr(op, rpc.CoreError(c.sh.url, err))
}

// lookupMany answers LookupMany and GetAttributesMany: every name that
// parses rides one batch frame (HDNS serves attributes from the view a
// lookup reads), and each item fails alone with the typed error its unary
// op would produce, a federation continuation for a URL name included.
func (c *Context) lookupMany(ctx context.Context, op core.Op) ([]core.BatchResult, error) {
	out := make([]core.BatchResult, len(op.Names))
	fulls := make([]core.Name, len(op.Names))
	wireNames := make([][]string, 0, len(op.Names))
	idx := make([]int, 0, len(op.Names)) // out positions that went on the wire
	for i, name := range op.Names {
		comps, full, err := c.full(ctx, name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.OpErr(op.Item(i), err)
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
		return nil, c.batchErr(ctx, op, err)
	}
	for k, rsp := range rsps {
		i := idx[k]
		item := op.Item(i)
		var res core.Result
		err := rsp.Err
		if err == nil {
			res, err = c.view(item, fulls[i], rsp.Rsp.View)
		}
		out[i] = core.ItemResult(res, core.OpErr(item, c.resolve(ctx, item.Kind, fulls[i], err)))
	}
	return out, nil
}

// bindMany answers BindMany: one batch frame carries every bind, applied
// sequentially and atomically per item by the node.
func (c *Context) bindMany(ctx context.Context, op core.Op) ([]core.BatchResult, error) {
	out := make([]core.BatchResult, len(op.Binds))
	fulls := make([]core.Name, len(op.Binds))
	binds := make([]hdns.BindManyOp, 0, len(op.Binds))
	idx := make([]int, 0, len(op.Binds))
	for i, r := range op.Binds {
		comps, full, err := c.full(ctx, r.Name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.OpErr(op.Item(i), err)
			continue
		}
		data, err := core.Marshal(r.Obj)
		if err != nil {
			out[i].Err = core.OpErr(op.Item(i), err)
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
		return nil, c.batchErr(ctx, op, err)
	}
	for k, rsp := range rsps {
		i := idx[k]
		if rsp.Err != nil {
			out[i].Err = core.OpErr(op.Item(i), c.resolve(ctx, core.OpBind, fulls[i], rsp.Err))
			continue
		}
		c.startRenewal(binds[k].Name, fulls[i].String())
	}
	return out, nil
}

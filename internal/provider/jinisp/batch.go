package jinisp

import (
	"context"

	"gondi/internal/core"
	"gondi/internal/jini"
)

// batchErr maps a whole-batch failure (transport, shed, ctx) to the error
// the caller should see. Per-item wire errors go through commErr instead.
func (c *Context) batchErr(ctx context.Context, op core.Op, err error) error {
	if cerr := core.CtxErr(ctx); cerr != nil {
		return cerr
	}
	return core.OpErr(op, c.commErr(err))
}

// lookupMany answers LookupMany and GetAttributesMany: every resolvable
// name's fetch rides one batch frame against the LUS, and each item fails
// alone with the typed error its unary op would produce (a federation
// continuation for a URL name included). The misses share one
// allBindings scan, so N misses cost one scan instead of N.
func (c *Context) lookupMany(ctx context.Context, op core.Op) ([]core.BatchResult, error) {
	out := make([]core.BatchResult, len(op.Names))
	fulls := make([]core.Name, len(op.Names))
	ts := make([]jini.ServiceTemplate, 0, len(op.Names))
	idx := make([]int, 0, len(op.Names)) // out positions that went on the wire
	for i, name := range op.Names {
		full, err := c.full(ctx, name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.OpErr(op.Item(i), err)
			continue
		}
		if op.Kind == core.OpLookupMany && full.Equal(c.base) {
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
		return nil, c.batchErr(ctx, op, err)
	}
	var scan []jini.ServiceItem
	for k := range matches {
		i := idx[k]
		item := op.Item(i)
		var res core.Result
		var err error
		switch {
		case errs[k] != nil:
			err = c.commErr(errs[k])
		case len(matches[k]) == 0:
			res, err = c.miss(ctx, item, fulls[i], &scan)
		default:
			res, err = c.found(item, fulls[i], &matches[k][0])
		}
		out[i] = core.ItemResult(res, core.OpErr(item, err))
	}
	return out, nil
}

// bindMany answers BindMany. In relaxed mode the existence checks ride
// one batch frame and the registrations another — two round trips for N
// binds. Strict mode takes the per-item lock path (EM locks serialize
// writers per parent context; batching under one lock would change the
// atomicity unit), and proxy mode keeps the proxy's per-item
// test-and-set, so both bind item by item.
func (c *Context) bindMany(ctx context.Context, op core.Op) ([]core.BatchResult, error) {
	if c.sh.strict || c.sh.proxy != nil {
		return core.DoItems(ctx, c, op)
	}
	out := make([]core.BatchResult, len(op.Binds))
	items := make([]jini.ServiceItem, 0, len(op.Binds))
	ts := make([]jini.ServiceTemplate, 0, len(op.Binds))
	idx := make([]int, 0, len(op.Binds))
	for i, r := range op.Binds {
		full, err := c.full(ctx, r.Name)
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
		} else if full.IsEmpty() {
			err = core.ErrInvalidNameEmpty
		} else if err = core.Resolve(ctx, core.OpBind, c.base, full, nil, c.probe); err == nil {
			var item jini.ServiceItem
			if item, err = itemFor(full, r.Obj, r.Attrs, false); err == nil {
				items = append(items, item)
				ts = append(ts, jini.ServiceTemplate{ID: item.ID})
				idx = append(idx, i)
			}
		}
		out[i].Err = core.OpErr(op.Item(i), err)
	}
	if len(items) == 0 {
		return out, nil
	}
	matches, errs, err := c.sh.reg.LookupMany(ctx, ts, 1)
	if err != nil {
		return nil, c.batchErr(ctx, op, err)
	}
	regItems := make([]jini.ServiceItem, 0, len(items))
	regIdx := make([]int, 0, len(items))
	for k := range matches {
		i := idx[k]
		switch {
		case errs[k] != nil:
			out[i].Err = core.OpErr(op.Item(i), c.commErr(errs[k]))
		case len(matches[k]) > 0:
			out[i].Err = core.OpErr(op.Item(i), core.ErrAlreadyBound)
		default:
			regItems = append(regItems, items[k])
			regIdx = append(regIdx, i)
		}
	}
	if len(regItems) == 0 {
		return out, nil
	}
	regs, rerrs, err := c.sh.reg.RegisterMany(ctx, regItems, c.sh.lease)
	if err != nil {
		return nil, c.batchErr(ctx, op, err)
	}
	for k := range regs {
		i := regIdx[k]
		if rerrs[k] != nil {
			out[i].Err = core.OpErr(op.Item(i), c.commErr(rerrs[k]))
			continue
		}
		c.sh.lrm.Manage(c.sh.reg, regs[k].ID, c.sh.lease)
	}
	return out, nil
}

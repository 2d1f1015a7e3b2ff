package hdnssp

import (
	"context"

	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/rpc"
)

// doMany answers LookupMany, GetAttributesMany and BindMany in one batch
// frame. Each item is mapped by wireOp as its unary op would be and
// answered the same way, so it fails alone with the typed error that op
// would produce, a federation continuation for a URL name included. An
// item that cannot be mapped (a bad name, an unmarshalable value) fails
// before the frame is sent; the rest ride it, applied sequentially by
// the node.
func (c *Context) doMany(ctx context.Context, op core.Op) ([]core.BatchResult, error) {
	n := len(op.Names)
	if op.Kind == core.OpBindMany {
		n = len(op.Binds)
	}
	out := make([]core.BatchResult, n)
	fulls := make([]core.Name, n)
	ws := make([]hdns.Op, 0, n)
	idx := make([]int, 0, n) // out positions that went on the wire
	for i := range out {
		item := op.Item(i)
		comps, full, err := c.full(ctx, item.Name)
		var w hdns.Op
		if err == nil {
			w, err = c.wireOp(ctx, item, comps, item.Attrs.ToMap())
		}
		if err != nil {
			if cerr := core.CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = core.OpErr(item, err)
			continue
		}
		fulls[i] = full
		ws = append(ws, w)
		idx = append(idx, i)
	}
	if len(ws) == 0 {
		return out, nil
	}
	rsps, err := c.sh.client.DoMany(ctx, ws)
	if err != nil {
		if cerr := core.CtxErr(ctx); cerr != nil {
			return nil, cerr
		}
		return nil, core.OpErr(op, rpc.CoreError(c.sh.url, err))
	}
	for k, rsp := range rsps {
		i := idx[k]
		item := op.Item(i)
		res, err := c.answer(ctx, item, fulls[i], ws[k].Name, rsp.Rsp, rsp.Err)
		out[i] = core.ItemResult(res, core.OpErr(item, err))
	}
	return out, nil
}

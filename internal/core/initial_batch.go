package core

import (
	"context"
	"errors"
)

// batchGroup collects the batch positions that resolved to one target
// context, so each target sees exactly one batched call.
type batchGroup struct {
	c     Context
	idxs  []int
	rests []Name
}

// groupByTarget resolves every item's name and buckets the resolvable
// ones by target context (names that resolve at one held root share it).
// Unresolvable names fail in place in out, as the item's unary operation
// would.
func (ic *InitialContext) groupByTarget(ctx context.Context, op Op, out []BatchResult) ([]*batchGroup, error) {
	groups := map[Context]*batchGroup{}
	var order []*batchGroup
	for i := range out {
		item := op.Item(i)
		c, rest, err := ic.resolve(ctx, item.Name)
		if err != nil {
			if cerr := CtxErr(ctx); cerr != nil {
				return nil, cerr
			}
			out[i].Err = Errf(item.Kind.String(), item.Name, err)
			continue
		}
		g := groups[c]
		if g == nil {
			g = &batchGroup{c: c}
			groups[c] = g
			order = append(order, g)
		}
		g.idxs = append(g.idxs, i)
		g.rests = append(g.rests, rest)
	}
	return order, nil
}

// doBatch runs a batch kind across the federated name space with one
// batched call per target naming system. Results come back in input
// order and items fail independently. Binds run the state factories per
// item exactly as unary Bind does; an item whose factory fails is answered
// in place and left out of the call. An item whose answer is a federation
// continuation finishes its walk with unary hops (boundary crossings are
// per item by nature — only the common trunk batches), and looked-up
// objects go through the object factories like unary Lookup's.
func (ic *InitialContext) doBatch(ctx context.Context, op Op) ([]BatchResult, error) {
	out := make([]BatchResult, op.Len())
	groups, err := ic.groupByTarget(ctx, op, out)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		sub := Op{Kind: op.Kind, AttrIDs: op.AttrIDs}
		live := make([]int, 0, len(g.idxs))
		for k, i := range g.idxs {
			rest := g.rests[k]
			if op.Kind == OpBindMany {
				r := op.Binds[i]
				state, attrs, err := ic.stateToBind(r.Obj, r.Attrs, rest)
				if err != nil {
					out[i].Err = Errf("bind", r.Name, err)
					continue
				}
				sub.Binds = append(sub.Binds, BindRequest{Name: rest.String(), Obj: state, Attrs: attrs})
			} else {
				sub.Names = append(sub.Names, rest.String())
			}
			live = append(live, i)
		}
		if len(live) == 0 {
			continue
		}
		res, err := Do(ctx, g.c, sub)
		if err != nil {
			return nil, err
		}
		for m, i := range live {
			out[i] = res.Batch[m]
			var cpe *CannotProceedError
			if errors.As(out[i].Err, &cpe) {
				item := sub.Item(m)
				item.Name = op.Item(i).Name // run reports against the caller's name
				if next, rest, err := ic.continueCtx(ctx, cpe); err != nil {
					out[i] = BatchResult{Err: err}
				} else {
					out[i] = ItemResult(ic.run(ctx, next, rest, item))
				}
			}
			if op.Kind == OpLookupMany && out[i].Err == nil {
				out[i].Value, out[i].Err = ic.postProcess(ctx, out[i].Value, op.Names[i], 0)
			}
		}
	}
	return out, nil
}

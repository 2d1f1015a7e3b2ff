package cache

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"gondi/internal/core"
)

// CachedContext is the caching wrapper handed out for a root (and for
// subtrees of it: a created subcontext, the empty name's lookup). All
// views of one root share its entry table: entries are keyed by full
// root-relative names, so a hit populated through one view serves every
// other.
//
// Its typed surface is core.BatchOpContext over Do, which treats an
// operation by what it does to the name space:
//
//   - reads (Lookup, List, ListBindings, GetAttributes, Search) are served
//     read-through from the entry table;
//   - writes pass straight through to the provider — its atomic
//     test-and-set runs untouched — and then evict every overlapping entry,
//     including a cached ErrNotFound for the name;
//   - LookupLink and Watch are rebased onto the root and passed through:
//     link-sensitive resolution must see the provider's current link
//     object, and a watch is a live channel, independent of the cache's
//     own invalidation watch;
//   - a name the cache cannot key (URL form, unparseable) goes to the
//     provider exactly as given, whatever the kind;
//   - the batch kinds split into hits and one batched fill (batch.go).
type CachedContext struct {
	core.BatchOpContext
	r    *root
	base core.Name
}

var (
	_ core.DirContext   = (*CachedContext)(nil)
	_ core.EventContext = (*CachedContext)(nil)
	_ core.BatchContext = (*CachedContext)(nil)
)

// newView is the wrapper for the subtree of r at base.
func newView(r *root, base core.Name) *CachedContext {
	cc := &CachedContext{r: r, base: base}
	cc.Doer = cc
	return cc
}

// fullName resolves name against the view base. ok is false for names the
// cache cannot key (URL names, unparseable names); those bypass the cache.
func (cc *CachedContext) fullName(name string) (core.Name, bool) {
	if core.IsURLName(name) {
		return core.Name{}, false
	}
	n, err := core.ParseName(name)
	if err != nil {
		return core.Name{}, false
	}
	return cc.base.Concat(n), true
}

// opKey builds the entry key for one operation kind on one full name.
func opKey(kind byte, full core.Name, extra string) string {
	return string(kind) + "\x00" + full.String() + "\x00" + extra
}

// readKey is the entry key of a read the cache serves — GetAttributes
// keyed per requested attribute-ID set, Search per (filter, controls) —
// and "" for every other kind.
func readKey(op core.Op, full core.Name) string {
	switch op.Kind {
	case core.OpLookup:
		return opKey('l', full, "")
	case core.OpList:
		return opKey('L', full, "")
	case core.OpListBindings:
		return opKey('B', full, "")
	case core.OpGetAttributes:
		return opKey('a', full, strings.Join(op.AttrIDs, "\x1f"))
	case core.OpSearch:
		return opKey('s', full, op.Filter+"\x1f"+controlsKey(op.Controls))
	}
	return ""
}

// controlsKey serializes the cache-relevant fields of SearchControls.
func controlsKey(c *core.SearchControls) string {
	if c == nil {
		return "-"
	}
	return fmt.Sprintf("%d|%d|%d|%v|%v", c.Scope, c.CountLimit, c.TimeLimit, c.ReturnAttrs, c.ReturnObject)
}

// Do implements core.Doer; see the type comment for the rule per kind.
func (cc *CachedContext) Do(ctx context.Context, op core.Op) (core.Result, error) {
	switch op.Kind {
	case core.OpLookupMany, core.OpGetAttributesMany:
		out, err := cc.readMany(ctx, op)
		return core.Result{Batch: out}, err
	case core.OpBindMany:
		out, err := cc.bindMany(ctx, op.Binds)
		return core.Result{Batch: out}, err
	}
	full, keyable := cc.fullName(op.Name)
	var newFull core.Name
	if keyable && op.Kind == core.OpRename {
		newFull, keyable = cc.fullName(op.NewName)
	}
	if !keyable {
		return core.Do(ctx, cc.r.getInner(), op)
	}
	if op.Kind == core.OpLookup && op.Name == "" {
		// JNDI: looking up the empty name yields a new context sharing this
		// one's state. The view is exactly that, with caching kept.
		return core.Result{Value: newView(cc.r, cc.base)}, nil
	}
	if key := readKey(op, full); key != "" {
		return cc.read(ctx, op, full, key)
	}
	inner := cc.r.getInner()
	if !core.Supports(inner, op) {
		return core.Do(ctx, inner, op) // refused against the caller's name
	}
	op.Name = full.String()
	if op.Kind == core.OpRename {
		op.NewName = newFull.String()
	}
	res, err := core.Do(ctx, inner, op)
	switch {
	case err != nil, op.Kind == core.OpLookupLink, op.Kind == core.OpWatch:
		return res, err
	case op.Kind == core.OpRename:
		cc.r.invalidate(op.Name, op.NewName)
	default:
		cc.r.invalidate(op.Name)
	}
	if op.Kind == core.OpCreateSubcontext {
		// The created context is handed back as a cached view of the new
		// subtree.
		res.Context = newView(cc.r, full)
	}
	return res, nil
}

// read serves one cacheable read: from the entry table, else from the
// provider under the root-relative name. An entry holds the one Result
// field the kind fills; what is served is copied out of it, so callers
// cannot alias the table.
func (cc *CachedContext) read(ctx context.Context, op core.Op, full core.Name, key string) (core.Result, error) {
	v, err := cc.r.cachedOp(ctx, key, full, func(inner core.Context) (any, error) {
		op.Name = full.String()
		res, err := core.Do(ctx, inner, op)
		if err != nil {
			return nil, err
		}
		switch op.Kind {
		case core.OpList:
			return res.Pairs, nil
		case core.OpListBindings:
			return res.Bindings, nil
		case core.OpGetAttributes:
			return res.Attrs, nil
		case core.OpSearch:
			return res.Found, nil
		}
		return res.Value, nil
	})
	if err != nil {
		return core.Result{}, err
	}
	switch op.Kind {
	case core.OpList:
		return core.Result{Pairs: slices.Clone(v.([]core.NameClassPair))}, nil
	case core.OpListBindings:
		return core.Result{Bindings: slices.Clone(v.([]core.Binding))}, nil
	case core.OpGetAttributes:
		return core.Result{Attrs: v.(*core.Attributes).Clone()}, nil
	case core.OpSearch:
		out := slices.Clone(v.([]core.SearchResult))
		for i := range out {
			out[i].Attributes = out[i].Attributes.Clone()
		}
		return core.Result{Found: out}, nil
	}
	return core.Result{Value: v}, nil
}

// Reference implements core.Referenceable when the provider does, so a
// cached context can still be bound into another naming system.
func (cc *CachedContext) Reference() (*core.Reference, error) {
	if rf, ok := cc.r.getInner().(core.Referenceable); ok {
		return rf.Reference()
	}
	return nil, core.ErrNotSupported
}

// NameInNamespace reports the provider root's name extended by the view
// base.
func (cc *CachedContext) NameInNamespace() (string, error) {
	nin, err := cc.r.getInner().NameInNamespace()
	if err != nil {
		return "", err
	}
	if cc.base.IsEmpty() {
		return nin, nil
	}
	n, err := core.ParseName(nin)
	if err != nil {
		return cc.base.String(), nil
	}
	return n.Concat(cc.base).String(), nil
}

// Environment returns the provider's environment.
func (cc *CachedContext) Environment() map[string]any {
	return cc.r.getInner().Environment()
}

// Close tears the root down when called on the root wrapper of a context
// the cache was given (Wrap). Closing a subtree view, or the
// wrapper of an InitialContext's held root, is a no-op: views share the
// root's connection and entry table, and the InitialContext closes its
// roots.
func (cc *CachedContext) Close() error {
	if !cc.base.IsEmpty() || !cc.r.owned {
		return nil
	}
	return cc.r.close()
}

// Stats exposes the owning cache's counters (handy in tests and tools).
func (cc *CachedContext) Stats() Stats { return cc.r.c.Stats() }

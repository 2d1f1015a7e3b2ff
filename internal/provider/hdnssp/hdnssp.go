// Package hdnssp is the JNDI service provider for HDNS — the second of
// the paper's two new providers (§5.2). HDNS was designed with the JNDI
// mapping in mind, so unlike the Jini provider no distributed locking is
// needed: every DirContext method maps onto a native, atomic HDNS
// operation. The provider shares the Jini provider's object/state factory
// mechanism (values are marshalled through the core codec) and the same
// lease-renewal approach.
package hdnssp

import (
	"context"
	"fmt"
	"time"

	"gondi/internal/connpool"
	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/hdns"
	"gondi/internal/lease"
	"gondi/internal/obs"
	"gondi/internal/rpc"
)

// Environment property keys.
const (
	// EnvSecret carries the node's write secret, if it requires one.
	EnvSecret = "hdns.secret"
	// EnvLeaseMs grants bindings a lease of this many milliseconds and
	// renews it automatically; 0 (default) binds without leases.
	EnvLeaseMs = "hdns.lease.ms"
)

// Register installs the "hdns" URL scheme provider. The URL authority
// may list several replica nodes ("hdns://node1:7001,node2:7001/..."):
// endpoints are tried in order with breaker-gated failover, and a
// *core.ServiceUnavailableError is returned only when every node is down.
// Every node behind one authority serves the same replica group; a
// namespace spread over several groups is joined by binding a reference
// to another group's hdns:// URL (federation).
func Register() {
	core.RegisterProvider("hdns", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		hc, err := failover.Open(ctx, u.Authority, func(ctx context.Context, ep string) (*Context, error) {
			c, oerr := Open(ctx, ep, env)
			if oerr != nil {
				return nil, rpc.CoreError(ep, oerr)
			}
			return c, nil
		})
		if err != nil {
			return nil, core.Name{}, err
		}
		return obs.Instrument(hc, "provider", "hdns"), u.Path, nil
	}))
}

// shared is pooled per (authority, environment) so that federation hops
// reuse one node connection instead of leaking one per resolution.
type shared struct {
	connpool.Entry
	client *hdns.Client
	url    string
	lease  time.Duration
	renew  lease.Set // keyed by full name
}

func (sh *shared) Closed() bool { return sh.client.Closed() }

// Close stops lease renewals, then drops the connection.
func (sh *shared) Close() error {
	sh.renew.StopAll()
	return sh.client.Close()
}

var pool connpool.Pool[*shared]

var mWatchLost = obs.Default.Counter("gondi_provider_watch_lost_total",
	"Event registrations lost with their wire connection, by provider.",
	obs.Label{K: "system", V: "hdns"})

// Context implements core.DirContext, core.EventContext,
// core.BatchContext and core.Referenceable over one HDNS node.
type Context struct {
	core.BatchOpContext // the typed surface, spelled over Do
	sh                  *shared
	base                core.Name
	env                 map[string]any
	owner               bool // only a root context holds a pool reference
	ref                 connpool.Ref
}

var _ core.DirContext = (*Context)(nil)
var _ core.EventContext = (*Context)(nil)
var _ core.BatchContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)
var _ core.Liveness = (*Context)(nil)

// Open connects to (or reuses a pooled connection for) the HDNS node at
// authority (host:port); the dial and auth handshake honour ctx.
func Open(ctx context.Context, authority string, env map[string]any) (*Context, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	secret := core.EnvString(env, EnvSecret, "")
	leaseMs := core.EnvInt(env, EnvLeaseMs, 0)
	key := fmt.Sprintf("%s|%s|%d|%v", authority, secret, leaseMs, env[core.EnvPoolID])
	sh, err := pool.Get(key, func() (*shared, error) {
		client, err := hdns.DialContext(ctx, authority, secret, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return &shared{
			client: client,
			url:    "hdns://" + authority,
			lease:  time.Duration(leaseMs) * time.Millisecond,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	c := &Context{sh: sh, env: env, owner: true}
	c.Doer = c
	return c, nil
}

func (c *Context) child(base core.Name) *Context {
	ch := &Context{sh: c.sh, base: base, env: c.env}
	ch.Doer = ch
	return ch
}

// full parses name under the context base, front-checking ctx so every
// operation fails fast once the caller's budget is gone.
func (c *Context) full(ctx context.Context, name string) ([]string, core.Name, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, core.Name{}, err
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return nil, core.Name{}, err
	}
	f := c.base.Concat(n)
	return f.Components(), f, nil
}

// resolve surfaces a native HDNS failure of an operation of kind on full
// as the core error its rpc status stands for (rpc.CoreError: a
// status-less one is a CommunicationError), answered by the
// name-resolution rule.
func (c *Context) resolve(ctx context.Context, kind core.OpKind, full core.Name, err error) error {
	if err == nil {
		return nil
	}
	return core.Resolve(ctx, kind, c.base, full, rpc.CoreError(c.sh.url, err), c.probe)
}

// probe is the name-resolution rule's probe: one node Lookup.
func (c *Context) probe(ctx context.Context, n core.Name) (core.Bound, any, error) {
	v, err := c.sh.client.Lookup(ctx, n.Components())
	switch {
	case err != nil:
		return core.BoundNothing, nil, rpc.CoreError(c.sh.url, err)
	case !v.Exists:
		return core.BoundNothing, nil, nil
	case v.IsCtx:
		return core.BoundContext, nil, nil
	}
	obj, err := core.Unmarshal(v.Obj)
	return core.BoundObject, obj, err
}

// Do implements core.Doer. Every operation maps onto one native HDNS
// call (§5.2): Bind is the node's own test-and-set, Rename and
// ModifyAttributes are atomic server-side, and a batch rides one frame.
func (c *Context) Do(ctx context.Context, op core.Op) (res core.Result, err error) {
	if c.sh.Released() {
		return res, core.OpErr(op, core.ErrClosed)
	}
	switch op.Kind {
	case core.OpLookupMany, core.OpGetAttributesMany:
		res.Batch, err = c.lookupMany(ctx, op)
		return res, err
	case core.OpBindMany:
		res.Batch, err = c.bindMany(ctx, op)
		return res, err
	}
	comps, full, err := c.full(ctx, op.Name)
	if err != nil {
		return res, core.OpErr(op, err)
	}
	switch op.Kind {
	case core.OpLookup, core.OpLookupLink, core.OpGetAttributes:
		v, lerr := c.sh.client.Lookup(ctx, comps)
		if lerr == nil {
			res, lerr = c.view(op, full, v)
		}
		err = c.resolve(ctx, op.Kind, full, lerr)
	case core.OpBind, core.OpRebind:
		var data []byte
		if data, err = core.Marshal(op.Obj); err != nil {
			break
		}
		if op.Kind == core.OpBind {
			err = c.sh.client.Bind(ctx, comps, data, op.Attrs.ToMap(), c.sh.lease.Milliseconds())
		} else {
			// No attributes keeps the bound ones (JNDI semantics).
			err = c.sh.client.Rebind(ctx, comps, data, op.Attrs.ToMap(), op.Attrs != nil, c.sh.lease.Milliseconds())
		}
		if err = c.resolve(ctx, op.Kind, full, err); err == nil {
			c.startRenewal(comps, full.String())
		}
	case core.OpUnbind:
		c.sh.renew.Stop(full.String())
		err = c.resolve(ctx, op.Kind, full, c.sh.client.Unbind(ctx, comps))
	case core.OpRename:
		newC, _, perr := c.full(ctx, op.NewName)
		if perr != nil {
			err = core.OnNewName(perr)
			break
		}
		err = c.resolve(ctx, op.Kind, full, c.sh.client.Rename(ctx, comps, newC))
	case core.OpList, core.OpListBindings:
		var bs []core.Binding
		if bs, err = c.list(ctx, comps, full); err == nil {
			res = core.ListResult(op.Kind, bs)
		}
	case core.OpCreateSubcontext:
		if err = c.resolve(ctx, op.Kind, full, c.sh.client.CreateCtx(ctx, comps, op.Attrs.ToMap())); err == nil {
			res.Context = c.child(full)
		}
	case core.OpDestroySubcontext:
		err = c.resolve(ctx, op.Kind, full, c.sh.client.DestroyCtx(ctx, comps))
	case core.OpModifyAttributes:
		recs := make([]hdns.ModRec, len(op.Mods))
		for i, m := range op.Mods {
			recs[i] = hdns.ModRec{Op: uint8(m.Op), ID: m.Attr.ID, Vals: m.Attr.Values}
		}
		err = c.resolve(ctx, op.Kind, full, c.sh.client.ModAttrs(ctx, comps, recs))
	case core.OpSearch:
		var s *core.Search
		if s, err = core.NewSearch(ctx, op); err == nil {
			if err = c.search(ctx, s, comps, full, op.Filter); err == nil {
				res.Found, err = s.Done()
				return res, err // a stopped search's partial results, as they are
			}
		}
	case core.OpWatch:
		res.Cancel, err = c.watch(ctx, comps, full, op)
	default:
		err = core.ErrNotSupported
	}
	return res, core.OpErr(op, err)
}

// view answers Lookup, LookupLink or GetAttributes from the node's view
// of full.
func (c *Context) view(op core.Op, full core.Name, v hdns.NodeView) (res core.Result, err error) {
	switch {
	case !v.Exists:
		err = core.ErrNotFound
	case op.Kind == core.OpGetAttributes:
		res.Attrs = core.AttributesFromMap(v.Attrs).Select(op.AttrIDs...)
	case v.IsCtx:
		res.Value = c.child(full)
	default:
		res.Value, err = core.Unmarshal(v.Obj)
	}
	return res, err
}

// startRenewal keeps the binding's lease alive until unbind or the last
// Close. A lost lease just ends the loop: the node reaps the binding.
func (c *Context) startRenewal(comps []string, key string) {
	sh := c.sh
	if sh.lease <= 0 {
		return // no lease, and no closure to allocate on the write path
	}
	if ctx, end, ok := sh.renew.Begin(key); ok {
		go func() {
			defer end()
			_ = lease.Renew(ctx, sh.lease, func(ctx context.Context) error {
				_, err := sh.client.RenewLease(ctx, comps, sh.lease.Milliseconds())
				return err
			}, nil)
		}()
	}
}

// list is the bindings of the context at full.
func (c *Context) list(ctx context.Context, comps []string, full core.Name) ([]core.Binding, error) {
	if err := core.Resolve(ctx, core.OpList, c.base, full, nil, c.probe); err != nil {
		return nil, err
	}
	entries, err := c.sh.client.List(ctx, comps)
	if err != nil {
		return nil, c.resolve(ctx, core.OpList, full, err)
	}
	out := make([]core.Binding, 0, len(entries))
	for _, e := range entries {
		b := core.Binding{Name: e.Name}
		if e.IsCtx {
			b.Class = core.ContextReferenceClass
			b.Object = c.child(full.Append(e.Name))
		} else {
			obj, err := core.Unmarshal(e.Obj)
			if err != nil {
				continue
			}
			b.Class = core.ClassOf(obj)
			b.Object = obj
		}
		out = append(out, b)
	}
	return out, nil
}

// search runs filterStr server-side and offers each hit. It asks for one
// hit past the count limit, so that Done can tell a limit that was
// exceeded from one that was only met.
func (c *Context) search(ctx context.Context, s *core.Search, comps []string, full core.Name, filterStr string) error {
	if err := core.Resolve(ctx, core.OpSearch, c.base, full, nil, c.probe); err != nil {
		return err
	}
	limit := s.Controls.CountLimit
	if limit > 0 {
		limit++
	}
	hits, err := c.sh.client.Search(ctx, comps, filterStr, int(s.Controls.Scope), limit)
	if err != nil {
		return c.resolve(ctx, core.OpSearch, full, err)
	}
	for _, h := range hits {
		if s.Stopped() {
			break
		}
		var obj any
		if !h.IsCtx {
			if obj, err = core.Unmarshal(h.Obj); err != nil {
				continue
			}
		}
		s.Add(core.NewName(h.Name...), core.AttributesFromMap(h.Attrs), obj, h.IsCtx)
	}
	return nil
}

// watch registers op.Listener through HDNS's distributed event
// notification (inherited from the H2O event mechanism in the paper).
// Server-side watches die with the connection: a loss of the watch.
func (c *Context) watch(ctx context.Context, comps []string, full core.Name, op core.Op) (func(), error) {
	if err := core.Resolve(ctx, core.OpWatch, c.base, full, nil, c.probe); err != nil {
		return nil, err
	}
	unwatch, err := c.sh.client.Watch(ctx, comps, int(op.Scope), func(e hdns.EventMsg) {
		name, oldName := core.NewName(e.Name...), core.Name{}
		var typ core.EventType
		switch e.Kind {
		case hdns.OpBind, hdns.OpCreateCtx:
			typ = core.EventObjectAdded
		case hdns.OpRebind, hdns.OpModAttrs:
			typ = core.EventObjectChanged
		case hdns.OpUnbind, hdns.OpDestroyCtx:
			typ = core.EventObjectRemoved
		case hdns.OpRename:
			typ, name, oldName = core.EventObjectRenamed, core.NewName(e.Name2...), name
		default:
			return
		}
		var newV, oldV any
		if len(e.Obj) > 0 {
			newV, _ = core.Unmarshal(e.Obj)
		}
		if len(e.Old) > 0 {
			oldV, _ = core.Unmarshal(e.Old)
		}
		if ev, ok := core.EventFor(full, op.Scope, typ, name, oldName, newV, oldV); ok {
			op.Listener(ev)
		}
	})
	if err != nil {
		return nil, rpc.CoreError(c.sh.url, err)
	}
	cancel, _ := core.WatchLoss(c.sh.client.Done(), op.Listener, mWatchLost.Inc, unwatch)
	return cancel, nil
}

// NameInNamespace implements core.Context.
func (c *Context) NameInNamespace() (string, error) { return c.base.String(), nil }

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// Close implements core.Context: the last root context for a pooled
// connection stops lease renewals and drops the connection.
func (c *Context) Close() error {
	if !c.owner {
		return nil
	}
	return pool.Release(c.sh, &c.ref)
}

// Dead implements core.Liveness: the pooled connection is gone, or its
// last holder released it.
func (c *Context) Dead() bool { return c.sh.Closed() || c.sh.Released() }

// Reference implements core.Referenceable for federation.
func (c *Context) Reference() (*core.Reference, error) {
	url := c.sh.url
	if !c.base.IsEmpty() {
		url += "/" + c.base.String()
	}
	return core.NewContextReference(url), nil
}

func (c *Context) String() string {
	return fmt.Sprintf("hdnssp.Context{%s base=%q}", c.sh.url, c.base.String())
}

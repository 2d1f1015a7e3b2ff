// Package jxtasp is the JNDI service provider for the JXTA substrate —
// completing the paper's three-system federation example
// "ldap://host.domain/n=jiniServer/jxtaGroup/myObject" (§6).
//
// Mapping: peer groups are contexts; advertisements are bindings (the
// object travels as the advertisement payload through the core codec,
// attributes as advertisement attributes). Bind uses the rendezvous's
// atomic first-publish; advertisements are leased and renewed by the
// provider until unbound or closed, exactly like the Jini and HDNS
// providers.
package jxtasp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gondi/internal/connpool"
	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/jxta"
	"gondi/internal/lease"
	"gondi/internal/obs"
	"gondi/internal/rpc"
)

// EnvLeaseMs sets the advertisement lifetime in milliseconds (default
// 120000, renewed at half-life until unbind or Close).
const EnvLeaseMs = "jxta.lease.ms"

// Register installs the "jxta" URL scheme provider. The URL authority
// may list several rendezvous peers ("jxta://rdv1:9701,rdv2:9701/..."):
// endpoints are tried in order with breaker-gated failover.
func Register() {
	core.RegisterProvider("jxta", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		jc, err := failover.Open(ctx, u.Authority, func(ctx context.Context, ep string) (*Context, error) {
			c, oerr := Open(ctx, ep, env)
			if oerr != nil {
				return nil, rpc.CoreError(ep, oerr)
			}
			return c, nil
		})
		if err != nil {
			return nil, core.Name{}, err
		}
		return obs.Instrument(jc, "provider", "jxta"), u.Path, nil
	}))
}

type shared struct {
	connpool.Entry
	peer  *jxta.Peer
	url   string
	lease time.Duration
	renew lease.Set // keyed by full name
}

func (sh *shared) Closed() bool { return sh.peer.Closed() }

// Close stops advertisement renewals, then drops the connection.
func (sh *shared) Close() error {
	sh.renew.StopAll()
	return sh.peer.Close()
}

var pool connpool.Pool[*shared]

// Context implements core.DirContext over one rendezvous.
type Context struct {
	core.OpContext // the typed surface, spelled over Do
	sh             *shared
	base           core.Name // group path under net
	env            map[string]any
	owner          bool // only a root context holds a pool reference
	ref            connpool.Ref
}

var _ core.DirContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)
var _ core.Liveness = (*Context)(nil)

// Open connects (or reuses a pooled connection) to the rendezvous at
// authority.
func Open(ctx context.Context, authority string, env map[string]any) (*Context, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	leaseMs := core.EnvInt(env, EnvLeaseMs, 120000)
	key := fmt.Sprintf("%s|%d|%v", authority, leaseMs, env[core.EnvPoolID])
	sh, err := pool.Get(key, func() (*shared, error) {
		peer, err := jxta.DialPeerContext(ctx, authority, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return &shared{
			peer:  peer,
			url:   "jxta://" + authority,
			lease: time.Duration(leaseMs) * time.Millisecond,
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

func (c *Context) full(ctx context.Context, name string) (core.Name, error) {
	if err := core.CtxErr(ctx); err != nil {
		return core.Name{}, err
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return core.Name{}, err
	}
	return c.base.Concat(n), nil
}

// groupOf converts a path to the rendezvous group string.
func groupOf(n core.Name) string {
	if n.IsEmpty() {
		return jxta.NetGroup
	}
	return jxta.NetGroup + "/" + strings.Join(n.Components(), "/")
}

// fetchAdv retrieves the advertisement bound at path, if any.
func (c *Context) fetchAdv(ctx context.Context, path core.Name) (*jxta.Advertisement, bool, error) {
	if path.IsEmpty() {
		return nil, false, nil
	}
	advs, err := c.sh.peer.Discover(ctx, groupOf(path.Prefix(path.Size()-1)), path.Last(), nil, 1)
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			return nil, false, nil
		}
		return nil, false, rpc.CoreError(c.sh.url, err)
	}
	if len(advs) == 0 {
		return nil, false, nil
	}
	return &advs[0], true, nil
}

func (c *Context) groupExists(ctx context.Context, path core.Name) (bool, error) {
	_, err := c.sh.peer.SubGroups(ctx, groupOf(path))
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			return false, nil
		}
		return false, rpc.CoreError(c.sh.url, err)
	}
	return true, nil
}

func advObject(adv *jxta.Advertisement) (any, error) {
	return core.Unmarshal(adv.Payload)
}

// probe is the name-resolution rule's probe: a group, else the
// advertisement bound at n, if any. A group costs one round trip, as a
// List or Search of a group path costs one per component.
func (c *Context) probe(ctx context.Context, n core.Name) (core.Bound, any, error) {
	if ok, err := c.groupExists(ctx, n); err != nil || ok {
		return core.BoundContext, nil, err
	}
	adv, ok, err := c.fetchAdv(ctx, n)
	if err != nil || !ok {
		return core.BoundNothing, nil, err
	}
	obj, err := advObject(adv)
	return core.BoundObject, obj, err
}

// Do implements core.Doer: groups are contexts and advertisements are
// bindings on the rendezvous. A failure gets the name-resolution rule's
// answer; List and Search get it before their requests.
func (c *Context) Do(ctx context.Context, op core.Op) (res core.Result, err error) {
	full, err := c.full(ctx, op.Name)
	if err != nil {
		return res, core.OpErr(op, err)
	}
	switch op.Kind {
	case core.OpLookup, core.OpLookupLink:
		res.Value, err = c.lookup(ctx, full)
	case core.OpBind:
		err = c.bind(ctx, full, op.Obj, op.Attrs)
	case core.OpRebind:
		err = c.rebind(ctx, full, op.Obj, op.Attrs)
	case core.OpUnbind:
		err = c.unbind(ctx, full)
	case core.OpRename:
		err = c.rename(ctx, full, op.NewName)
	case core.OpList, core.OpListBindings:
		var bs []core.Binding
		if bs, err = c.list(ctx, full); err == nil {
			res = core.ListResult(op.Kind, bs)
		}
		return res, core.OpErr(op, err)
	case core.OpCreateSubcontext:
		if err = c.createGroup(ctx, full, op.Attrs); err == nil {
			res.Context = c.child(full)
		}
	case core.OpDestroySubcontext:
		err = rpc.CoreError(c.sh.url, c.sh.peer.DestroyGroup(ctx, groupOf(full)))
	case core.OpGetAttributes:
		res.Attrs, err = c.attributes(ctx, full, op.AttrIDs)
	case core.OpModifyAttributes:
		err = c.modify(ctx, full, op.Mods)
	case core.OpSearch:
		var s *core.Search
		if s, err = core.NewSearch(ctx, op); err == nil {
			if err = c.search(ctx, s, full); err == nil {
				res.Found, err = s.Done()
				return res, err // a stopped walk's partial results, as they are
			}
		}
		return res, core.OpErr(op, err)
	default:
		err = core.ErrNotSupported
	}
	if err != nil {
		err = core.Resolve(ctx, op.Kind, c.base, full, err, c.probe)
	}
	return res, core.OpErr(op, err)
}

func (c *Context) lookup(ctx context.Context, full core.Name) (any, error) {
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	adv, ok, err := c.fetchAdv(ctx, full)
	if err != nil {
		return nil, err
	}
	if ok {
		return advObject(adv)
	}
	exists, err := c.groupExists(ctx, full)
	if err != nil {
		return nil, err
	}
	if exists {
		return c.child(full), nil
	}
	return nil, core.ErrNotFound
}

func (c *Context) publish(ctx context.Context, full core.Name, obj any, attrs *core.Attributes, onlyNew bool) error {
	if full.IsEmpty() {
		return core.ErrInvalidNameEmpty
	}
	data, err := core.Marshal(obj)
	if err != nil {
		return err
	}
	adv := jxta.Advertisement{
		Group:   groupOf(full.Prefix(full.Size() - 1)),
		Name:    full.Last(),
		Attrs:   attrs.ToMap(),
		Payload: data,
	}
	if _, err := c.sh.peer.Publish(ctx, adv, c.sh.lease, onlyNew); err != nil {
		return rpc.CoreError(c.sh.url, err)
	}
	// Renew until unbind or the last Close. A lost lease just ends the
	// loop: the rendezvous expires the advertisement.
	sh := c.sh
	if sh.lease <= 0 {
		return nil
	}
	if rctx, end, ok := sh.renew.Begin(full.String()); ok {
		go func() {
			defer end()
			_ = lease.Renew(rctx, sh.lease, func(ctx context.Context) error {
				_, err := sh.peer.Renew(ctx, adv.Group, adv.Name, sh.lease)
				return err
			}, nil)
		}()
	}
	return nil
}

// bind is the rendezvous's atomic first-publish; a group of the same
// name counts as bound.
func (c *Context) bind(ctx context.Context, full core.Name, obj any, attrs *core.Attributes) error {
	if exists, gerr := c.groupExists(ctx, full); gerr == nil && exists {
		return core.ErrAlreadyBound
	}
	return c.publish(ctx, full, obj, attrs, true)
}

// rebind republishes, keeping the attributes when none are supplied.
func (c *Context) rebind(ctx context.Context, full core.Name, obj any, attrs *core.Attributes) error {
	if exists, gerr := c.groupExists(ctx, full); gerr == nil && exists {
		return core.ErrNotContext
	}
	if attrs == nil {
		if adv, ok, ferr := c.fetchAdv(ctx, full); ferr == nil && ok {
			attrs = core.AttributesFromMap(adv.Attrs)
		}
	}
	return c.publish(ctx, full, obj, attrs, false)
}

func (c *Context) unbind(ctx context.Context, full core.Name) error {
	if full.IsEmpty() {
		return core.ErrInvalidNameEmpty
	}
	c.sh.renew.Stop(full.String())
	return rpc.CoreError(c.sh.url, c.sh.peer.Flush(ctx, groupOf(full.Prefix(full.Size()-1)), full.Last()))
}

// rename is fetch + bind + unbind.
func (c *Context) rename(ctx context.Context, oldFull core.Name, newName string) error {
	adv, ok, err := c.fetchAdv(ctx, oldFull)
	if err != nil {
		return err
	}
	if !ok {
		return core.ErrNotFound
	}
	obj, err := advObject(adv)
	if err != nil {
		return err
	}
	newFull, err := c.full(ctx, newName)
	if err == nil {
		err = c.bind(ctx, newFull, obj, core.AttributesFromMap(adv.Attrs))
	}
	if err != nil {
		return core.OnNewName(err)
	}
	return c.unbind(ctx, oldFull)
}

// list is the subgroups plus the advertisements of the group at full.
func (c *Context) list(ctx context.Context, full core.Name) ([]core.Binding, error) {
	if err := core.Resolve(ctx, core.OpList, c.base, full, nil, c.probe); err != nil {
		return nil, err
	}
	subs, err := c.sh.peer.SubGroups(ctx, groupOf(full))
	if err != nil {
		return nil, rpc.CoreError(c.sh.url, err)
	}
	advs, err := c.sh.peer.Discover(ctx, groupOf(full), "", nil, 0)
	if err != nil {
		return nil, rpc.CoreError(c.sh.url, err)
	}
	var out []core.Binding
	for _, g := range subs {
		out = append(out, core.Binding{
			Name:   g,
			Class:  core.ContextReferenceClass,
			Object: c.child(full.Append(g)),
		})
	}
	for i := range advs {
		obj, oerr := advObject(&advs[i])
		if oerr != nil {
			continue
		}
		out = append(out, core.Binding{Name: advs[i].Name, Class: core.ClassOf(obj), Object: obj})
	}
	return out, nil
}

// createGroup creates a peer group. Peer groups carry no attributes;
// non-empty attrs are rejected rather than silently dropped.
func (c *Context) createGroup(ctx context.Context, full core.Name, attrs *core.Attributes) error {
	if attrs.Size() > 0 {
		return core.ErrNotSupported
	}
	if _, ok, _ := c.fetchAdv(ctx, full); ok {
		return core.ErrAlreadyBound
	}
	return rpc.CoreError(c.sh.url, c.sh.peer.CreateGroup(ctx, groupOf(full)))
}

func (c *Context) attributes(ctx context.Context, full core.Name, attrIDs []string) (*core.Attributes, error) {
	adv, ok, err := c.fetchAdv(ctx, full)
	if err != nil {
		return nil, err
	}
	if ok {
		return core.AttributesFromMap(adv.Attrs).Select(attrIDs...), nil
	}
	if exists, _ := c.groupExists(ctx, full); exists {
		return &core.Attributes{}, nil
	}
	return nil, core.ErrNotFound
}

// modify is read-modify-republish.
func (c *Context) modify(ctx context.Context, full core.Name, mods []core.AttributeMod) error {
	adv, ok, err := c.fetchAdv(ctx, full)
	if err != nil {
		return err
	}
	if !ok {
		return core.ErrNotFound
	}
	attrs := core.AttributesFromMap(adv.Attrs)
	if err := attrs.Apply(mods); err != nil {
		return err
	}
	obj, err := advObject(adv)
	if err != nil {
		return err
	}
	return c.publish(ctx, full, obj, attrs, false)
}

// search walks the peer groups under full client-side. A scope that does
// not descend from the base tests the advertisement full names alone.
func (c *Context) search(ctx context.Context, s *core.Search, full core.Name) error {
	if err := core.Resolve(ctx, core.OpSearch, c.base, full, nil, c.probe); err != nil {
		return err
	}
	if s.Controls.Scope.Descends(0) {
		return c.walk(ctx, s, full, core.Name{})
	}
	if adv, ok, err := c.fetchAdv(ctx, full); err == nil && ok && !s.Stopped() {
		c.offer(s, core.Name{}, adv)
	}
	return nil
}

// walk offers the advertisements of group, rel below the base, then walks
// its subgroups as far as the scope descends.
func (c *Context) walk(ctx context.Context, s *core.Search, group, rel core.Name) error {
	if s.Stopped() {
		return nil
	}
	advs, err := c.sh.peer.Discover(ctx, groupOf(group), "", nil, 0)
	if err != nil {
		return rpc.CoreError(c.sh.url, err)
	}
	for i := range advs {
		if s.Stopped() {
			return nil
		}
		c.offer(s, rel.Append(advs[i].Name), &advs[i])
	}
	if !s.Controls.Scope.Descends(rel.Size() + 1) {
		return nil
	}
	subs, err := c.sh.peer.SubGroups(ctx, groupOf(group))
	if err != nil {
		return nil
	}
	for _, g := range subs {
		if err := c.walk(ctx, s, group.Append(g), rel.Append(g)); err != nil {
			return err
		}
	}
	return nil
}

// offer offers the advertisement at rel to s.
func (c *Context) offer(s *core.Search, rel core.Name, adv *jxta.Advertisement) {
	attrs := core.AttributesFromMap(adv.Attrs)
	if !s.Match(rel.Size(), attrs) {
		return
	}
	if obj, err := advObject(adv); err == nil {
		s.Add(rel, attrs, obj, false)
	}
}

// NameInNamespace implements core.Context.
func (c *Context) NameInNamespace() (string, error) { return groupOf(c.base), nil }

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// Close implements core.Context: the last root context stops renewals and
// drops the connection.
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
	return fmt.Sprintf("jxtasp.Context{%s group=%q}", c.sh.url, groupOf(c.base))
}

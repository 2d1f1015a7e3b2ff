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
	"sort"
	"strings"
	"time"

	"gondi/internal/connpool"
	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/filter"
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
	sh    *shared
	base  core.Name // group path under net
	env   map[string]any
	owner bool // only a root context holds a pool reference
	ref   connpool.Ref
}

var _ core.DirContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)

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
	return &Context{sh: sh, env: env, owner: true}, nil
}

func (c *Context) child(base core.Name) *Context {
	return &Context{sh: c.sh, base: base, env: c.env}
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

// boundary raises a federation continuation when a prefix (or, with
// includeSelf, the name itself) is an advertisement holding a Reference.
func (c *Context) boundary(ctx context.Context, full core.Name, includeSelf bool) *core.CannotProceedError {
	limit := full.Size()
	if includeSelf {
		limit++
	}
	for i := 1; i < limit && i <= full.Size(); i++ {
		adv, ok, err := c.fetchAdv(ctx, full.Prefix(i))
		if err != nil || !ok {
			continue
		}
		obj, err := advObject(adv)
		if err != nil {
			continue
		}
		switch obj.(type) {
		case *core.Reference, core.Context:
			return &core.CannotProceedError{
				Resolved:      obj,
				RemainingName: full.Suffix(i),
				AltName:       full.Prefix(i).String(),
			}
		}
	}
	return nil
}

// Lookup implements core.Context.
func (c *Context) Lookup(ctx context.Context, name string) (any, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	adv, ok, err := c.fetchAdv(ctx, full)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if ok {
		obj, err := advObject(adv)
		if err != nil {
			return nil, core.Errf("lookup", name, err)
		}
		return obj, nil
	}
	exists, err := c.groupExists(ctx, full)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if exists {
		return c.child(full), nil
	}
	if cpe := c.boundary(ctx, full, false); cpe != nil {
		return nil, cpe
	}
	return nil, core.Errf("lookup", name, core.ErrNotFound)
}

// LookupLink implements core.Context.
func (c *Context) LookupLink(ctx context.Context, name string) (any, error) {
	return c.Lookup(ctx, name)
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
		if errors.Is(err, core.ErrNotFound) {
			if cpe := c.boundary(ctx, full, false); cpe != nil {
				return cpe
			}
		}
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

// Bind implements core.Context via atomic first-publish.
func (c *Context) Bind(ctx context.Context, name string, obj any) error {
	return c.BindAttrs(ctx, name, obj, nil)
}

// BindAttrs implements core.DirContext.
func (c *Context) BindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("bind", name, err)
	}
	// A group of the same name counts as bound.
	if exists, gerr := c.groupExists(ctx, full); gerr == nil && exists {
		return core.Errf("bind", name, core.ErrAlreadyBound)
	}
	return core.Errf("bind", name, c.publish(ctx, full, obj, attrs, true))
}

// Rebind implements core.Context (republish, preserving attributes when
// none are supplied).
func (c *Context) Rebind(ctx context.Context, name string, obj any) error {
	return c.rebind(ctx, name, obj, nil, false)
}

// RebindAttrs implements core.DirContext.
func (c *Context) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	return c.rebind(ctx, name, obj, attrs, attrs != nil)
}

func (c *Context) rebind(ctx context.Context, name string, obj any, attrs *core.Attributes, replace bool) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("rebind", name, err)
	}
	if exists, gerr := c.groupExists(ctx, full); gerr == nil && exists {
		return core.Errf("rebind", name, core.ErrNotContext)
	}
	if !replace {
		if adv, ok, ferr := c.fetchAdv(ctx, full); ferr == nil && ok {
			attrs = core.AttributesFromMap(adv.Attrs)
		}
	}
	return core.Errf("rebind", name, c.publish(ctx, full, obj, attrs, false))
}

// Unbind implements core.Context.
func (c *Context) Unbind(ctx context.Context, name string) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("unbind", name, err)
	}
	if full.IsEmpty() {
		return core.Errf("unbind", name, core.ErrInvalidNameEmpty)
	}
	c.sh.renew.Stop(full.String())
	err = c.sh.peer.Flush(ctx, groupOf(full.Prefix(full.Size()-1)), full.Last())
	if errors.Is(err, core.ErrNotFound) {
		if cpe := c.boundary(ctx, full, false); cpe != nil {
			return cpe
		}
	}
	return core.Errf("unbind", name, rpc.CoreError(c.sh.url, err))
}

// Rename implements core.Context (fetch + bind + unbind).
func (c *Context) Rename(ctx context.Context, oldName, newName string) error {
	oldFull, err := c.full(ctx, oldName)
	if err != nil {
		return core.Errf("rename", oldName, err)
	}
	adv, ok, err := c.fetchAdv(ctx, oldFull)
	if err != nil {
		return core.Errf("rename", oldName, err)
	}
	if !ok {
		return core.Errf("rename", oldName, core.ErrNotFound)
	}
	obj, err := advObject(adv)
	if err != nil {
		return core.Errf("rename", oldName, err)
	}
	if err := c.BindAttrs(ctx, newName, obj, core.AttributesFromMap(adv.Attrs)); err != nil {
		return err
	}
	return c.Unbind(ctx, oldName)
}

// List implements core.Context.
func (c *Context) List(ctx context.Context, name string) ([]core.NameClassPair, error) {
	bindings, err := c.ListBindings(ctx, name)
	if err != nil {
		return nil, err
	}
	out := make([]core.NameClassPair, len(bindings))
	for i, b := range bindings {
		out[i] = core.NameClassPair{Name: b.Name, Class: b.Class}
	}
	return out, nil
}

// ListBindings implements core.Context: subgroups plus advertisements.
func (c *Context) ListBindings(ctx context.Context, name string) ([]core.Binding, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	if cpe := c.boundary(ctx, full, true); cpe != nil {
		return nil, cpe
	}
	subs, err := c.sh.peer.SubGroups(ctx, groupOf(full))
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			if _, ok, _ := c.fetchAdv(ctx, full); ok {
				return nil, core.Errf("list", name, core.ErrNotContext)
			}
		}
		return nil, core.Errf("list", name, rpc.CoreError(c.sh.url, err))
	}
	advs, err := c.sh.peer.Discover(ctx, groupOf(full), "", nil, 0)
	if err != nil {
		return nil, core.Errf("list", name, rpc.CoreError(c.sh.url, err))
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
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// CreateSubcontext implements core.Context as peer-group creation.
func (c *Context) CreateSubcontext(ctx context.Context, name string) (core.Context, error) {
	dc, err := c.CreateSubcontextAttrs(ctx, name, nil)
	if err != nil {
		return nil, err
	}
	return dc, nil
}

// CreateSubcontextAttrs implements core.DirContext. Peer groups carry no
// attributes; non-empty attrs are rejected rather than silently dropped.
func (c *Context) CreateSubcontextAttrs(ctx context.Context, name string, attrs *core.Attributes) (core.DirContext, error) {
	if attrs.Size() > 0 {
		return nil, core.Errf("createSubcontext", name, core.ErrNotSupported)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	if _, ok, _ := c.fetchAdv(ctx, full); ok {
		return nil, core.Errf("createSubcontext", name, core.ErrAlreadyBound)
	}
	if err := c.sh.peer.CreateGroup(ctx, groupOf(full)); err != nil {
		return nil, core.Errf("createSubcontext", name, rpc.CoreError(c.sh.url, err))
	}
	return c.child(full), nil
}

// DestroySubcontext implements core.Context.
func (c *Context) DestroySubcontext(ctx context.Context, name string) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("destroySubcontext", name, err)
	}
	err = c.sh.peer.DestroyGroup(ctx, groupOf(full))
	return core.Errf("destroySubcontext", name, rpc.CoreError(c.sh.url, err))
}

// GetAttributes implements core.DirContext.
func (c *Context) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	adv, ok, err := c.fetchAdv(ctx, full)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	if ok {
		return core.AttributesFromMap(adv.Attrs).Select(attrIDs...), nil
	}
	if exists, _ := c.groupExists(ctx, full); exists {
		return &core.Attributes{}, nil
	}
	if cpe := c.boundary(ctx, full, false); cpe != nil {
		return nil, cpe
	}
	return nil, core.Errf("getAttributes", name, core.ErrNotFound)
}

// ModifyAttributes implements core.DirContext (read-modify-republish).
func (c *Context) ModifyAttributes(ctx context.Context, name string, mods []core.AttributeMod) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	adv, ok, err := c.fetchAdv(ctx, full)
	if err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	if !ok {
		return core.Errf("modifyAttributes", name, core.ErrNotFound)
	}
	attrs := core.AttributesFromMap(adv.Attrs)
	if err := attrs.Apply(mods); err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	obj, err := advObject(adv)
	if err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	return core.Errf("modifyAttributes", name, c.publish(ctx, full, obj, attrs, false))
}

// Search implements core.DirContext by walking groups client-side.
func (c *Context) Search(ctx context.Context, name, filterStr string, controls *core.SearchControls) ([]core.SearchResult, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	f, err := filter.Parse(filterStr)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	if cpe := c.boundary(ctx, full, true); cpe != nil {
		return nil, cpe
	}
	if controls == nil {
		controls = &core.SearchControls{Scope: core.ScopeSubtree}
	}
	var deadline time.Time
	if controls.TimeLimit > 0 {
		deadline = time.Now().Add(controls.TimeLimit)
	}
	var out []core.SearchResult
	var limitHit bool
	var stopErr error
	var walk func(path core.Name, depth int) error
	walk = func(path core.Name, depth int) error {
		if limitHit || stopErr != nil {
			return nil
		}
		if cerr := core.CtxErr(ctx); cerr != nil {
			stopErr = cerr
			return nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			stopErr = &core.TimeLimitExceededError{Limit: controls.TimeLimit}
			return nil
		}
		advs, err := c.sh.peer.Discover(ctx, groupOf(path), "", nil, 0)
		if err != nil {
			return rpc.CoreError(c.sh.url, err)
		}
		for i := range advs {
			d := depth + 1
			inScope := controls.Scope == core.ScopeSubtree ||
				(controls.Scope == core.ScopeOneLevel && d == 1)
			if !inScope {
				continue
			}
			attrs := core.AttributesFromMap(advs[i].Attrs)
			if !attrs.MatchesFilter(f) {
				continue
			}
			rel := path.Suffix(full.Size()).Append(advs[i].Name)
			r := core.SearchResult{Name: rel.String(), Attributes: attrs.Select(controls.ReturnAttrs...)}
			obj, oerr := advObject(&advs[i])
			if oerr != nil {
				continue
			}
			r.Class = core.ClassOf(obj)
			if controls.ReturnObject {
				r.Object = obj
			}
			out = append(out, r)
			if controls.CountLimit > 0 && len(out) >= controls.CountLimit {
				limitHit = true
				return nil
			}
		}
		if controls.Scope == core.ScopeSubtree || depth == 0 {
			subs, err := c.sh.peer.SubGroups(ctx, groupOf(path))
			if err != nil {
				return nil
			}
			if controls.Scope != core.ScopeOneLevel || depth == 0 {
				for _, g := range subs {
					if controls.Scope == core.ScopeSubtree {
						if err := walk(path.Append(g), depth+1); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	}
	if controls.Scope == core.ScopeObject {
		// Object scope tests the named advertisement only.
		adv, ok, err := c.fetchAdv(ctx, full)
		if err == nil && ok {
			attrs := core.AttributesFromMap(adv.Attrs)
			if attrs.MatchesFilter(f) {
				obj, oerr := advObject(adv)
				if oerr == nil {
					r := core.SearchResult{Name: "", Class: core.ClassOf(obj),
						Attributes: attrs.Select(controls.ReturnAttrs...)}
					if controls.ReturnObject {
						r.Object = obj
					}
					out = append(out, r)
				}
			}
		}
	} else if err := walk(full, 0); err != nil {
		return nil, core.Errf("search", name, err)
	}
	if stopErr != nil {
		return out, stopErr
	}
	if limitHit {
		return out, &core.LimitExceededError{Limit: controls.CountLimit}
	}
	return out, nil
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

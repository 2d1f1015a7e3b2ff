// Package ldapsp is the JNDI service provider for LDAP — the workhorse
// "leaf" provider of the paper's federation scenario (§6, Figure 7),
// where department-level OpenLDAP servers hold the dynamic data sets.
//
// Name mapping: composite name components become RDNs, leftmost =
// shallowest. A component containing '=' is used verbatim as an RDN;
// otherwise it becomes "cn=<component>". The provider URL's path is the
// base DN: "ldap://host:389/dc=mathcs,dc=emory,dc=edu".
//
// Bound objects are carried in the javaSerializedData attribute
// (base64 of the core codec form), the same convention Sun's JNDI LDAP
// provider uses for serialized Java objects.
package ldapsp

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"time"

	"gondi/internal/connpool"
	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/ldapsrv"
	"gondi/internal/obs"
)

// Environment property keys.
const (
	// EnvPrincipal and EnvCredentials select the simple-bind identity;
	// the core EnvPrincipal/EnvCredentials keys are honoured too.
	EnvPrincipal   = "ldap.principal"
	EnvCredentials = "ldap.credentials"
	// EnvCacheTTLMs advises caching layers how long (in milliseconds)
	// entries read from this directory may be served without revalidation.
	// LDAP has no change notification in this provider, so the operator
	// sets the staleness budget; unset means the cache's own default.
	EnvCacheTTLMs = "ldap.cache.ttl.ms"
)

// Attribute names used by the object encoding.
const (
	objDataAttr   = "javaSerializedData"
	objClassAttr  = "objectClass"
	objClassValue = "javaObject"
	ctxClassValue = "javaContainer"
)

// Register installs the "ldap" URL scheme provider.
func Register() {
	core.RegisterProvider("ldap", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		// The first path component is the base DN; the rest federate
		// onward as composite name components.
		baseDN := ""
		rest := u.Path
		if !u.Path.IsEmpty() {
			baseDN = u.Path.First()
			rest = u.Path.Suffix(1)
		}
		// The authority may list several replica servers
		// ("ldap://srv1:389,srv2:389/..."): endpoints are tried in order
		// with breaker-gated failover.
		lc, err := failover.Open(ctx, u.Authority, func(ctx context.Context, ep string) (*Context, error) {
			c, oerr := Open(ctx, ep, baseDN, env)
			if oerr != nil {
				return nil, &core.CommunicationError{Endpoint: ep, Err: oerr}
			}
			return c, nil
		})
		if err != nil {
			return nil, core.Name{}, err
		}
		return obs.Instrument(lc, "provider", "ldap"), rest, nil
	}))
}

// shared is pooled per (authority, base DN, identity) so that federation
// hops reuse one server connection instead of leaking one per resolution.
// Note the LDAP wire connection is synchronous, so contexts sharing a
// pooled connection serialize their requests; pass a distinct
// core.EnvPoolID to force separate connections.
type shared struct {
	connpool.Entry
	conn   *ldapsrv.Conn
	url    string
	baseDN ldapsrv.DN
}

func (sh *shared) Closed() bool { return sh.conn.Dead() }

func (sh *shared) Close() error { return sh.conn.Close() }

var pool connpool.Pool[*shared]

// Context implements core.DirContext over one LDAP server.
type Context struct {
	core.OpContext // the typed surface, spelled over Do
	sh             *shared
	base           core.Name
	env            map[string]any
	owner          bool // only a root context holds a pool reference
	ref            connpool.Ref
}

var _ core.DirContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)
var _ core.Liveness = (*Context)(nil)

// Open connects (or reuses a pooled connection) and optionally binds to
// the LDAP server; the dial and initial bind honour ctx.
func Open(ctx context.Context, authority, baseDN string, env map[string]any) (*Context, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	if !strings.Contains(authority, ":") {
		authority += ":389"
	}
	principal := core.EnvString(env, EnvPrincipal, core.EnvString(env, core.EnvPrincipal, ""))
	credentials := core.EnvString(env, EnvCredentials, core.EnvString(env, core.EnvCredentials, ""))
	key := fmt.Sprintf("%s|%s|%s|%s|%v", authority, baseDN, principal, credentials, env[core.EnvPoolID])
	sh, err := pool.Get(key, func() (*shared, error) {
		conn, err := ldapsrv.DialContext(ctx, authority)
		if err != nil {
			return nil, err
		}
		if err := conn.Bind(ctx, principal, credentials); err != nil {
			conn.Close()
			return nil, err
		}
		dn, err := ldapsrv.ParseDN(baseDN)
		if err != nil {
			conn.Close()
			return nil, err
		}
		return &shared{conn: conn, url: "ldap://" + authority + "/" + baseDN, baseDN: dn}, nil
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

// rdnFor maps one composite component to an RDN string.
func rdnFor(component string) string {
	if strings.Contains(component, "=") {
		return component
	}
	return "cn=" + ldapsrv.EscapeDNValue(component)
}

// dnFor maps a path (shallowest first) to a DN under the base.
func (c *Context) dnFor(n core.Name) string {
	comps := n.Components()
	parts := make([]string, 0, len(comps)+1)
	for i := len(comps) - 1; i >= 0; i-- {
		parts = append(parts, rdnFor(comps[i]))
	}
	if len(c.sh.baseDN) > 0 {
		parts = append(parts, c.sh.baseDN.String())
	}
	return strings.Join(parts, ",")
}

// mapResultErr converts LDAP result codes to core sentinels. Anything
// that is not an LDAP result — and not the caller's own context expiring
// or a typed busy answer — came from the wire, not the directory, and is
// wrapped as a transport failure so callers (failover, the cache's
// serve-stale, the chaos suite) can classify it.
func (c *Context) mapResultErr(err error) error {
	if err == nil {
		return nil
	}
	var re *ldapsrv.ResultError
	if !asResultError(err, &re) {
		var busy *core.ServerBusyError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.As(err, &busy) {
			return err
		}
		return &core.CommunicationError{Endpoint: c.sh.url, Err: err}
	}
	switch re.Result.Code {
	case ldapsrv.ResultNoSuchObject:
		return core.ErrNotFound
	case ldapsrv.ResultEntryAlreadyExists:
		return core.ErrAlreadyBound
	case ldapsrv.ResultNotAllowedOnNonLea:
		return core.ErrContextNotEmpty
	case ldapsrv.ResultInsufficientAccess, ldapsrv.ResultInvalidCredentials:
		return core.ErrNoPermission
	default:
		return re
	}
}

func asResultError(err error, out **ldapsrv.ResultError) bool {
	for err != nil {
		if re, ok := err.(*ldapsrv.ResultError); ok {
			*out = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// fetch reads the entry at the path, if present.
func (c *Context) fetch(ctx context.Context, n core.Name) (*ldapsrv.Entry, bool, error) {
	entries, err := c.sh.conn.Search(ctx, c.dnFor(n), "(objectClass=*)", &ldapsrv.SearchOptions{Scope: ldapsrv.ScopeBaseObject})
	if err != nil {
		merr := c.mapResultErr(err)
		if merr == core.ErrNotFound {
			return nil, false, nil
		}
		return nil, false, merr
	}
	if len(entries) == 0 {
		return nil, false, nil
	}
	return &entries[0], true, nil
}

// entryObject extracts the bound object from an entry; ok=false means the
// entry is a plain subcontext.
func entryObject(e *ldapsrv.Entry) (any, bool, error) {
	data := e.GetFirst(objDataAttr)
	if data == "" {
		return nil, false, nil
	}
	raw, err := base64.StdEncoding.DecodeString(data)
	if err != nil {
		return nil, false, fmt.Errorf("ldapsp: corrupt %s: %w", objDataAttr, err)
	}
	obj, err := core.Unmarshal(raw)
	if err != nil {
		return nil, false, err
	}
	return obj, true, nil
}

// probe is the name-resolution rule's probe: one base-object search. In
// LDAP every entry can hold children, so an entry is a context unless it
// holds a junction.
func (c *Context) probe(ctx context.Context, n core.Name) (core.Bound, any, error) {
	e, ok, err := c.fetch(ctx, n)
	if err != nil || !ok {
		return core.BoundNothing, nil, err
	}
	obj, _, err := entryObject(e)
	if err != nil || !core.IsJunction(obj) {
		return core.BoundContext, nil, err
	}
	return core.BoundObject, obj, nil
}

// Do implements core.Doer: each operation is one LDAP request, or a few
// where LDAP has no single one (rebind, a rename across contexts). A
// failure gets the name-resolution rule's answer; List and Search get it
// before their request, since LDAP lists or searches an entry that holds
// a junction as any other.
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
	case core.OpUnbind, core.OpDestroySubcontext:
		err = c.mapResultErr(c.sh.conn.Delete(ctx, c.dnFor(full)))
	case core.OpRename:
		err = c.rename(ctx, full, op.NewName)
	case core.OpList, core.OpListBindings:
		var bs []core.Binding
		if bs, err = c.list(ctx, full); err == nil {
			res = core.ListResult(op.Kind, bs)
		}
		return res, core.OpErr(op, err)
	case core.OpCreateSubcontext:
		var la []ldapsrv.EntryAttr
		if la, err = ldapAttrs(op.Attrs, nil, true); err == nil {
			err = c.mapResultErr(c.sh.conn.Add(ctx, c.dnFor(full), la))
		}
		if err == nil {
			res.Context = c.child(full)
		}
	case core.OpGetAttributes:
		var e *ldapsrv.Entry
		if e, err = c.entry(ctx, full); err == nil {
			res.Attrs = entryAttrs(e).Select(op.AttrIDs...)
		}
	case core.OpModifyAttributes:
		err = c.modify(ctx, full, op.Mods)
	case core.OpSearch:
		var s *core.Search
		var stop error
		if s, err = core.NewSearch(ctx, op); err == nil {
			if stop, err = c.search(ctx, s, full, op.Filter); err == nil {
				if res.Found, err = s.Done(); err == nil {
					err = stop
				}
				return res, err // a limit's partial results, as they are
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

// entry reads the entry at full.
func (c *Context) entry(ctx context.Context, full core.Name) (*ldapsrv.Entry, error) {
	e, ok, err := c.fetch(ctx, full)
	if err == nil && !ok {
		err = core.ErrNotFound
	}
	return e, err
}

func (c *Context) lookup(ctx context.Context, full core.Name) (any, error) {
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	e, err := c.entry(ctx, full)
	if err != nil {
		return nil, err
	}
	obj, has, err := entryObject(e)
	if err != nil || has {
		return obj, err
	}
	return c.child(full), nil
}

// entryAttrs converts a directory entry's attributes (minus the object
// payload) into core attributes.
func entryAttrs(e *ldapsrv.Entry) *core.Attributes {
	attrs := &core.Attributes{}
	for _, a := range e.Attrs {
		if strings.EqualFold(a.Type, objDataAttr) {
			continue
		}
		attrs.Put(a.Type, a.Vals...)
	}
	return attrs
}

func ldapAttrs(attrs *core.Attributes, obj any, isCtx bool) ([]ldapsrv.EntryAttr, error) {
	var out []ldapsrv.EntryAttr
	hasClass := false
	for _, a := range attrs.All() {
		if strings.EqualFold(a.ID, objClassAttr) {
			hasClass = true
		}
		out = append(out, ldapsrv.EntryAttr{Type: a.ID, Vals: a.Values})
	}
	if !hasClass {
		class := objClassValue
		if isCtx {
			class = ctxClassValue
		}
		out = append(out, ldapsrv.EntryAttr{Type: objClassAttr, Vals: []string{"top", class}})
	}
	if !isCtx {
		data, err := core.Marshal(obj)
		if err != nil {
			return nil, err
		}
		out = append(out, ldapsrv.EntryAttr{
			Type: objDataAttr,
			Vals: []string{base64.StdEncoding.EncodeToString(data)},
		})
	}
	return out, nil
}

// bind is an LDAP Add, natively atomic.
func (c *Context) bind(ctx context.Context, full core.Name, obj any, attrs *core.Attributes) error {
	la, err := ldapAttrs(attrs, obj, false)
	if err != nil {
		return err
	}
	return c.mapResultErr(c.sh.conn.Add(ctx, c.dnFor(full), la))
}

// rebindAttempts bounds the delete+add pairs one rebind issues.
const rebindAttempts = 16

// rebind is delete-then-add, LDAP having no overwrite; nil attrs keep the
// entry's attributes (JNDI semantics).
func (c *Context) rebind(ctx context.Context, full core.Name, obj any, attrs *core.Attributes) error {
	if attrs == nil {
		if e, ok, ferr := c.fetch(ctx, full); ferr == nil && ok {
			attrs = entryAttrs(e)
		}
	}
	la, err := ldapAttrs(attrs, obj, false)
	if err != nil {
		return err
	}
	dn := c.dnFor(full)
	// Delete-then-add is two requests. When the add finds the name taken,
	// another client's rebind landed in between: this one lost a race,
	// the name was not "already bound" in the caller's sense, so redo the
	// pair. Each loss is another rebind completing, so the bound is only
	// reached under a stream of them.
	for attempt := 1; ; attempt++ {
		if derr := c.mapResultErr(c.sh.conn.Delete(ctx, dn)); derr != nil && derr != core.ErrNotFound {
			return derr
		}
		err = c.mapResultErr(c.sh.conn.Add(ctx, dn, la))
		if err != core.ErrAlreadyBound || attempt == rebindAttempts {
			return err
		}
	}
}

// rename is a ModifyDN for a sibling, and lookup + bind + unbind
// otherwise.
func (c *Context) rename(ctx context.Context, oldFull core.Name, newName string) error {
	newFull, err := c.full(ctx, newName)
	if err != nil {
		return core.OnNewName(err)
	}
	if oldFull.Size() == newFull.Size() &&
		oldFull.Prefix(oldFull.Size()-1).Equal(newFull.Prefix(newFull.Size()-1)) {
		return c.mapResultErr(c.sh.conn.ModifyDN(ctx, c.dnFor(oldFull), rdnFor(newFull.Last()), true))
	}
	obj, err := c.lookup(ctx, oldFull)
	if err != nil {
		return err
	}
	e, ok, err := c.fetch(ctx, oldFull)
	if err != nil || !ok {
		return core.ErrNotFound
	}
	if err := c.bind(ctx, newFull, obj, entryAttrs(e)); err != nil {
		return core.OnNewName(err)
	}
	if err = c.mapResultErr(c.sh.conn.Delete(ctx, c.dnFor(oldFull))); err == core.ErrNotFound {
		return nil
	}
	return err
}

// list is a one-level search under full.
func (c *Context) list(ctx context.Context, full core.Name) ([]core.Binding, error) {
	if err := core.Resolve(ctx, core.OpList, c.base, full, nil, c.probe); err != nil {
		return nil, err
	}
	entries, err := c.sh.conn.Search(ctx, c.dnFor(full), "(objectClass=*)",
		&ldapsrv.SearchOptions{Scope: ldapsrv.ScopeSingleLevel})
	if err != nil {
		return nil, c.mapResultErr(err)
	}
	out := make([]core.Binding, 0, len(entries))
	for i := range entries {
		e := &entries[i]
		dn, perr := ldapsrv.ParseDN(e.DN)
		if perr != nil || len(dn) == 0 {
			continue
		}
		leaf, _ := dn.Leaf()
		b := core.Binding{Name: leaf.Value}
		obj, has, oerr := entryObject(e)
		if oerr != nil {
			continue
		}
		if has {
			b.Class = core.ClassOf(obj)
			b.Object = obj
		} else {
			b.Class = core.ContextReferenceClass
			b.Object = c.child(full.Append(leaf.Value))
		}
		out = append(out, b)
	}
	return out, nil
}

// modify is one LDAP Modify, atomic server-side.
func (c *Context) modify(ctx context.Context, full core.Name, mods []core.AttributeMod) error {
	changes := make([]ldapsrv.ModifyChange, len(mods))
	for i, m := range mods {
		var op int
		switch m.Op {
		case core.ModAdd:
			op = ldapsrv.ModifyAdd
		case core.ModReplace:
			op = ldapsrv.ModifyReplace
		case core.ModRemove:
			op = ldapsrv.ModifyDelete
		default:
			return core.ErrInvalidAttributes
		}
		changes[i] = ldapsrv.ModifyChange{Op: op, Attr: ldapsrv.EntryAttr{Type: m.Attr.ID, Vals: m.Attr.Values}}
	}
	return c.mapResultErr(c.sh.conn.Modify(ctx, c.dnFor(full), changes))
}

// search pushes filterStr and both limits to the server and offers each
// entry it returns. A limit the server hit is stop, beside the entries
// it returned before stopping.
func (c *Context) search(ctx context.Context, s *core.Search, full core.Name, filterStr string) (stop, err error) {
	if err := core.Resolve(ctx, core.OpSearch, c.base, full, nil, c.probe); err != nil {
		return nil, err
	}
	controls := s.Controls
	var scope int
	switch controls.Scope {
	case core.ScopeObject:
		scope = ldapsrv.ScopeBaseObject
	case core.ScopeOneLevel:
		scope = ldapsrv.ScopeSingleLevel
	default:
		scope = ldapsrv.ScopeWholeSubtree
	}
	baseDN := c.dnFor(full)
	entries, err := c.sh.conn.Search(ctx, baseDN, filterStr, &ldapsrv.SearchOptions{
		Scope: scope, SizeLimit: controls.CountLimit, TimeLimit: controls.TimeLimit,
	})
	if err != nil {
		var re *ldapsrv.ResultError
		switch {
		case asResultError(err, &re) && re.Result.Code == ldapsrv.ResultSizeLimitExceeded:
			stop = &core.LimitExceededError{Limit: controls.CountLimit}
		case asResultError(err, &re) && re.Result.Code == ldapsrv.ResultTimeLimitExceeded:
			stop = &core.TimeLimitExceededError{Limit: controls.TimeLimit}
		default:
			return nil, c.mapResultErr(err)
		}
	}
	base := ldapsrv.MustParseDN(baseDN)
	for i := range entries {
		if s.Stopped() {
			break
		}
		e := &entries[i]
		dn, perr := ldapsrv.ParseDN(e.DN)
		if perr != nil {
			continue
		}
		if obj, has, oerr := entryObject(e); oerr == nil {
			s.Add(relName(dn, base), entryAttrs(e), obj, !has)
		}
	}
	return stop, nil
}

// relName converts a DN under base into a composite path, shallowest
// component first.
func relName(dn, base ldapsrv.DN) core.Name {
	depth := dn.Depth(base)
	if depth <= 0 {
		return core.Name{}
	}
	comps := make([]string, depth)
	for i := 0; i < depth; i++ {
		comps[depth-1-i] = dn[i].Value
	}
	return core.NewName(comps...)
}

// NameInNamespace implements core.Context (the DN of this context).
func (c *Context) NameInNamespace() (string, error) {
	return c.dnFor(c.base), nil
}

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// AdviseTTL implements the caching layer's TTLAdvisor contract using the
// operator-configured EnvCacheTTLMs staleness budget.
func (c *Context) AdviseTTL(string) (time.Duration, bool) {
	ms := core.EnvInt(c.env, EnvCacheTTLMs, 0)
	if ms <= 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// Close implements core.Context: the last root context for a pooled
// connection closes it.
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
	return fmt.Sprintf("ldapsp.Context{%s base=%q}", c.sh.url, c.base.String())
}

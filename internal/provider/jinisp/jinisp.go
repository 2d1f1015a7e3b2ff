// Package jinisp is the JNDI service provider for Jini lookup services —
// the first of the paper's two new providers (§5.1).
//
// The three mapping problems the paper identifies are solved as follows:
//
//   - State and object factories: arbitrary <name, object, attributes>
//     tuples are wrapped into "fake" service items — the object is
//     marshalled into the item's Service field and the name/attributes
//     become typed attribute entries — and unwrapped on retrieval.
//   - Leases: the JNDI API has no expiration concept, so the provider
//     grants every binding a lease and renews it automatically through a
//     LeaseRenewalManager until the entry is unbound or the provider is
//     closed.
//   - Atomicity: Jini registration is overwrite-only, so the strict
//     JNDI bind (fail-if-bound) takes an Eisenberg–McGuire critical
//     section whose shared registers are themselves lookup-service
//     items accessed with plain read/write operations. The environment
//     property "jini.bind" = "relaxed" disables the locking (single-
//     writer deployments), trading atomicity for the ≈7× write
//     throughput of Figure 3.
package jinisp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/connpool"
	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/jini"
	"gondi/internal/lock"
	"gondi/internal/obs"
	"gondi/internal/rpc"
)

// Environment property keys.
const (
	// EnvBind selects the write semantics: "strict" (default; atomic via
	// Eisenberg–McGuire locking over the LUS), "relaxed" (check-then-set,
	// no atomicity), or "proxy" (atomic via a BindProxy colocated with
	// the LUS — the optimization §7 of the paper proposes; requires
	// EnvProxyAddr).
	EnvBind = "jini.bind"
	// EnvProxyAddr is the BindProxy address for "proxy" bind semantics.
	EnvProxyAddr = "jini.proxy.addr"
	// EnvLockSlots is the Eisenberg–McGuire process-table size.
	EnvLockSlots = "jini.lock.slots"
	// EnvLockSlot is this client's process index in [0, slots).
	EnvLockSlot = "jini.lock.slot"
	// EnvLeaseMs is the binding lease duration in milliseconds.
	EnvLeaseMs = "jini.lease.ms"
	// EnvLockLeaseMs bounds Eisenberg–McGuire flag ownership in
	// milliseconds, evicting crashed lock participants (default
	// lock.DefaultLease). Must exceed the longest critical section.
	EnvLockLeaseMs = "jini.lock.lease.ms"
)

// Entry and item type names used by the fake-stub encoding.
const (
	bindingType   = "jndi.Binding"
	contextType   = "jndi.Context"
	nameEntryType = "jndi.Name"
	attrEntryType = "jndi.Attr"
	registerType  = "jndi.Register"
	valueSep      = "\x1f"
)

// Register installs the "jini" URL scheme provider. The URL authority
// may list several lookup services ("jini://lus1:4160,lus2:4160/..."):
// endpoints are tried in order with breaker-gated failover, and a
// *core.ServiceUnavailableError is returned only when every LUS is down.
func Register() {
	core.RegisterProvider("jini", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		jc, err := failover.Open(ctx, u.Authority, func(ctx context.Context, ep string) (*Context, error) {
			loc, lerr := jini.ParseLocator("jini://" + ep)
			if lerr != nil {
				return nil, lerr
			}
			c, oerr := Open(ctx, loc.Addr(), env)
			if oerr != nil {
				return nil, rpc.CoreError(loc.Addr(), oerr)
			}
			return c, nil
		})
		if err != nil {
			return nil, core.Name{}, err
		}
		return obs.Instrument(jc, "provider", "jini"), u.Path, nil
	}))
}

// shared is the per-connection state shared by a context tree. Shared
// states are pooled per (address, environment), so every root opened on
// one lookup service with one environment — an InitialContext's held
// root, a provider test's context — shares one registrar connection,
// which the last root's Close releases.
type shared struct {
	connpool.Entry
	reg       *jini.Registrar
	proxy     *jini.ProxyClient // non-nil under "proxy" bind semantics
	lrm       *jini.LeaseRenewalManager
	url       string
	strict    bool
	slots     int
	slot      int
	lease     time.Duration
	lockLease time.Duration

	// Active watches, each lost (its listener sees EventWatchLost)
	// when the renewal manager gives a lease up (LUS unreachable past
	// expiry): their lose functions, from core.WatchLoss.
	subMu   sync.Mutex
	subs    map[int]func()
	nextSub int
}

func (sh *shared) Closed() bool {
	return sh.reg.Closed() || (sh.proxy != nil && sh.proxy.Closed())
}

// Close stops lease renewals ("until the Java VM exits"), then drops the
// proxy and the registrar.
func (sh *shared) Close() error {
	sh.lrm.Stop()
	if sh.proxy != nil {
		_ = sh.proxy.Close()
	}
	return sh.reg.Close()
}

// notifyLost loses every active watch — its view of the registry can no
// longer be trusted once a lease has lapsed.
func (sh *shared) notifyLost() {
	sh.subMu.Lock()
	loses := make([]func(), 0, len(sh.subs))
	for _, lose := range sh.subs {
		loses = append(loses, lose)
	}
	sh.subMu.Unlock()
	for _, lose := range loses {
		lose()
	}
}

var pool connpool.Pool[*shared]

var mWatchLost = obs.Default.Counter("gondi_provider_watch_lost_total",
	"Event registrations lost with their wire connection, by provider.",
	obs.Label{K: "system", V: "jini"})

// Context implements core.DirContext, core.EventContext,
// core.BatchContext and core.Referenceable over one lookup service.
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

// Open connects to (or reuses a pooled connection for) the LUS at addr
// and returns the provider root context; the dial honours ctx.
func Open(ctx context.Context, addr string, env map[string]any) (*Context, error) {
	if err := core.CtxErr(ctx); err != nil {
		return nil, err
	}
	mode := core.EnvString(env, EnvBind, "strict")
	proxyAddr := core.EnvString(env, EnvProxyAddr, "")
	slots := core.EnvInt(env, EnvLockSlots, 16)
	slot := core.EnvInt(env, EnvLockSlot, 0)
	leaseMs := core.EnvInt(env, EnvLeaseMs, 30000)
	lockLeaseMs := core.EnvInt(env, EnvLockLeaseMs, 0)
	key := fmt.Sprintf("%s|%s|%s|%d|%d|%d|%d|%v", addr, mode, proxyAddr,
		slots, slot, leaseMs, lockLeaseMs, env[core.EnvPoolID])
	sh, err := pool.Get(key, func() (*shared, error) {
		reg, err := jini.DialRegistrarContext(ctx, addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		var proxy *jini.ProxyClient
		if mode == "proxy" {
			if proxyAddr == "" {
				reg.Close()
				return nil, fmt.Errorf("jinisp: %q bind semantics require %s", mode, EnvProxyAddr)
			}
			proxy, err = jini.DialProxy(proxyAddr, 10*time.Second)
			if err != nil {
				reg.Close()
				return nil, err
			}
		}
		sh := &shared{
			reg:       reg,
			proxy:     proxy,
			lrm:       jini.NewLeaseRenewalManager(),
			url:       "jini://" + addr,
			strict:    mode == "strict",
			slots:     max(slots, 1),
			slot:      slot,
			lease:     time.Duration(leaseMs) * time.Millisecond,
			lockLease: time.Duration(lockLeaseMs) * time.Millisecond,
			subs:      map[int]func(){},
		}
		if sh.slot < 0 || sh.slot >= sh.slots {
			sh.slot = 0
		}
		sh.lrm.OnLost = func(jini.ServiceID, error) { sh.notifyLost() }
		return sh, nil
	})
	if err != nil {
		return nil, err
	}
	c := &Context{sh: sh, env: env, owner: true}
	c.Doer = c
	return c, nil
}

// idFor derives the deterministic service ID for a bound name, making
// Register a per-name overwrite.
func idFor(path string) jini.ServiceID {
	sum := sha256.Sum256([]byte("jndi:" + path))
	return jini.ServiceID(hex.EncodeToString(sum[:16]))
}

func regIDFor(register string) jini.ServiceID {
	sum := sha256.Sum256([]byte("jndi-reg:" + register))
	return jini.ServiceID(hex.EncodeToString(sum[:16]))
}

// itemFor wraps a binding into a fake service item (the state-factory
// translation of §5.1).
func itemFor(path core.Name, obj any, attrs *core.Attributes, isCtx bool) (jini.ServiceItem, error) {
	p := path.String()
	parent := path.Prefix(path.Size() - 1).String()
	item := jini.ServiceItem{
		ID:    idFor(p),
		Types: []string{bindingType},
		Entries: []jini.Entry{
			jini.NewEntry(nameEntryType, "name", p, "parent", parent),
		},
	}
	if isCtx {
		item.Types = append(item.Types, contextType)
	} else {
		data, err := core.Marshal(obj)
		if err != nil {
			return jini.ServiceItem{}, err
		}
		item.Service = data
	}
	for _, a := range attrs.All() {
		item.Entries = append(item.Entries, jini.NewEntry(attrEntryType,
			"id", strings.ToLower(a.ID), "values", strings.Join(a.Values, valueSep)))
	}
	return item, nil
}

func itemIsContext(item *jini.ServiceItem) bool {
	for _, t := range item.Types {
		if t == contextType {
			return true
		}
	}
	return false
}

func itemAttrs(item *jini.ServiceItem) *core.Attributes {
	attrs := &core.Attributes{}
	for _, e := range item.Entries {
		if e.Type != attrEntryType {
			continue
		}
		id := e.Fields["id"]
		if id == "" {
			continue
		}
		var vals []string
		if v := e.Fields["values"]; v != "" {
			vals = strings.Split(v, valueSep)
		}
		attrs.Put(id, vals...)
	}
	return attrs
}

func itemObject(item *jini.ServiceItem) (any, error) {
	if itemIsContext(item) {
		return nil, nil
	}
	return core.Unmarshal(item.Service)
}

func itemName(item *jini.ServiceItem) string {
	for _, e := range item.Entries {
		if e.Type == nameEntryType {
			return e.Fields["name"]
		}
	}
	return ""
}

// commErr classifies a registrar call's failure: breaker-open means the
// LUS is known-dead and retrying is pointless
// (*core.ServiceUnavailableError); otherwise rpc.CoreError returns an
// error that carries a status as its core error and wraps the rest in a
// CommunicationError.
func (c *Context) commErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err // the caller's own budget, not a transport failure
	}
	if errors.Is(err, breaker.ErrOpen) {
		return &core.ServiceUnavailableError{Endpoint: c.sh.url, Err: err}
	}
	return rpc.CoreError(c.sh.url, err)
}

// fetch retrieves the item bound at path, if any.
func (c *Context) fetch(ctx context.Context, path core.Name) (*jini.ServiceItem, bool, error) {
	item, ok, err := c.sh.reg.LookupOne(ctx, jini.ServiceTemplate{ID: idFor(path.String())})
	if err != nil {
		return nil, false, c.commErr(err)
	}
	if !ok {
		return nil, false, nil
	}
	return &item, true, nil
}

// allBindings retrieves every binding item (used for prefix scans: List,
// Search, virtual intermediate contexts).
func (c *Context) allBindings(ctx context.Context) ([]jini.ServiceItem, error) {
	items, err := c.sh.reg.Lookup(ctx, jini.ServiceTemplate{Types: []string{bindingType}}, 0)
	if err != nil {
		return nil, c.commErr(err)
	}
	return items, nil
}

// probe is the name-resolution rule's probe: one ID lookup. A LUS holds
// no item for an intermediate context (a name with bindings under it is
// one), so a name with no item is reported as a context.
func (c *Context) probe(ctx context.Context, n core.Name) (core.Bound, any, error) {
	item, ok, err := c.fetch(ctx, n)
	if err != nil || !ok || itemIsContext(item) {
		return core.BoundContext, nil, err
	}
	obj, err := itemObject(item)
	return core.BoundObject, obj, err
}

// resolveAt is the rule's answer at full alone, before a List, Search or
// Watch: one ID lookup, so a junction bound there continues.
func (c *Context) resolveAt(ctx context.Context, kind core.OpKind, full core.Name) error {
	if full.IsEmpty() {
		return nil
	}
	return core.Resolve(ctx, kind, full.Prefix(full.Size()-1), full, nil, c.probe)
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

func (c *Context) child(base core.Name) *Context {
	ch := &Context{sh: c.sh, base: base, env: c.env}
	ch.Doer = ch
	return ch
}

// hasChildren reports whether any binding lives under path.
func (c *Context) hasChildren(ctx context.Context, path core.Name) (bool, error) {
	items, err := c.allBindings(ctx)
	if err != nil {
		return false, err
	}
	return prefixMatch(items, path), nil
}

// prefixMatch reports whether any of items is bound under path.
func prefixMatch(items []jini.ServiceItem, path core.Name) bool {
	for i := range items {
		if rel, ok := under(&items[i], path); ok && !rel.IsEmpty() {
			return true
		}
	}
	return false
}

// under returns item's name relative to full, if item is bound at full
// or below it.
func under(item *jini.ServiceItem, full core.Name) (core.Name, bool) {
	n, err := core.ParseName(itemName(item))
	if err != nil || !n.StartsWith(full) {
		return core.Name{}, false
	}
	return n.Suffix(full.Size()), true
}

// Do implements core.Doer. Reads are LUS lookups; writes register or
// cancel fake service items, guarded as EnvBind selects. A LUS sees
// items, not paths, so a write gets the name-resolution rule's answer
// before it runs.
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
	full, err := c.full(ctx, op.Name)
	if err != nil {
		return res, core.OpErr(op, err)
	}
	switch op.Kind {
	case core.OpLookup, core.OpLookupLink, core.OpGetAttributes:
		res, err = c.read(ctx, op, full)
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
	case core.OpCreateSubcontext:
		// An explicit context-marker item.
		var item jini.ServiceItem
		if err = core.Resolve(ctx, op.Kind, c.base, full, nil, c.probe); err == nil {
			item, err = itemFor(full, nil, op.Attrs, true)
		}
		if err == nil {
			err = c.bindNew(ctx, full, item)
		}
		if err == nil {
			res.Context = c.child(full)
		}
	case core.OpDestroySubcontext:
		err = c.destroy(ctx, full)
	case core.OpModifyAttributes:
		err = c.modify(ctx, full, op.Mods)
	case core.OpSearch:
		var s *core.Search
		if s, err = core.NewSearch(ctx, op); err == nil {
			if err = c.search(ctx, s, full); err == nil {
				res.Found, err = s.Done()
				return res, err // a stopped search's partial results, as they are
			}
		}
	case core.OpWatch:
		res.Cancel, err = c.watch(ctx, full, op)
	default:
		err = core.ErrNotSupported
	}
	return res, core.OpErr(op, err)
}

// read answers Lookup, LookupLink or GetAttributes.
func (c *Context) read(ctx context.Context, op core.Op, full core.Name) (core.Result, error) {
	if op.Kind != core.OpGetAttributes && full.Equal(c.base) {
		return core.Result{Value: c.child(c.base)}, nil
	}
	item, ok, err := c.fetch(ctx, full)
	if err != nil {
		return core.Result{}, err
	}
	if ok {
		return c.found(op, full, item)
	}
	var scan []jini.ServiceItem
	return c.miss(ctx, op, full, &scan)
}

// found answers Lookup or GetAttributes from the item bound at full.
func (c *Context) found(op core.Op, full core.Name, item *jini.ServiceItem) (res core.Result, err error) {
	switch {
	case op.Kind == core.OpGetAttributes:
		res.Attrs = itemAttrs(item).Select(op.AttrIDs...)
	case itemIsContext(item):
		res.Value = c.child(full)
	default:
		res.Value, err = itemObject(item)
	}
	return res, err
}

// miss answers Lookup or GetAttributes for a name with no item: a
// federation continuation, a virtual intermediate context (a prefix of
// bound names, with no attributes), or not found. scan holds the
// allBindings scan once made, so a batch's misses share one.
func (c *Context) miss(ctx context.Context, op core.Op, full core.Name, scan *[]jini.ServiceItem) (core.Result, error) {
	if err := core.Resolve(ctx, op.Kind, c.base, full, nil, c.probe); err != nil {
		return core.Result{}, err
	}
	if *scan == nil {
		items, err := c.allBindings(ctx)
		if err != nil {
			if op.Kind == core.OpGetAttributes {
				return core.Result{}, core.ErrNotFound // a failed children scan is a plain miss
			}
			return core.Result{}, err
		}
		if items == nil {
			items = []jini.ServiceItem{}
		}
		*scan = items
	}
	switch {
	case !prefixMatch(*scan, full):
		return core.Result{}, core.ErrNotFound
	case op.Kind == core.OpGetAttributes:
		return core.Result{Attrs: &core.Attributes{}}, nil
	}
	return core.Result{Value: c.child(full)}, nil
}

// mutex builds the Eisenberg–McGuire lock guarding the named context's
// bindings. Registers are LUS items, so only read/write primitives are
// used — exactly the constraint the paper works under.
func (c *Context) mutex(ctx context.Context, parent core.Name) (*lock.Mutex, error) {
	store := &lusRegisters{c: c, ctx: ctx, prefix: "lock:" + parent.String()}
	m, err := lock.New(store, "em", c.sh.slots, c.sh.slot)
	if err != nil {
		return nil, err
	}
	// Lease-bounded ownership evicts a client that crashed while holding
	// the lock (its "active" register would otherwise wedge every writer
	// of this context forever).
	m.Lease = c.sh.lockLease
	return m, nil
}

// lusRegisters adapts lookup-service items to lock.RegisterStore. The
// captured ctx bounds the register I/O issued while spinning on the lock,
// so the caller's deadline also covers the critical-section entry.
type lusRegisters struct {
	c      *Context
	ctx    context.Context
	prefix string
}

// Read implements lock.RegisterStore via a Jini lookup.
func (s *lusRegisters) Read(name string) (string, error) {
	full := s.prefix + "/" + name
	item, ok, err := s.c.sh.reg.LookupOne(s.ctx, jini.ServiceTemplate{ID: regIDFor(full)})
	if err != nil || !ok {
		return "", s.c.commErr(err)
	}
	for _, e := range item.Entries {
		if e.Type == registerType {
			return e.Fields["value"], nil
		}
	}
	return "", nil
}

// Write implements lock.RegisterStore via an (overwriting) registration.
func (s *lusRegisters) Write(name, value string) error {
	full := s.prefix + "/" + name
	_, err := s.c.sh.reg.Register(s.ctx, jini.ServiceItem{
		ID:      regIDFor(full),
		Types:   []string{registerType},
		Entries: []jini.Entry{jini.NewEntry(registerType, "name", full, "value", value)},
	}, jini.MaxLease)
	return s.c.commErr(err)
}

// register writes a binding item and starts renewing its lease.
func (c *Context) register(ctx context.Context, item jini.ServiceItem) error {
	reg, err := c.sh.reg.Register(ctx, item, c.sh.lease)
	if err != nil {
		return c.commErr(err)
	}
	c.sh.lrm.Manage(c.sh.reg, reg.ID, c.sh.lease)
	return nil
}

// proxyRegister writes through the colocated BindProxy (the §7
// optimization): the proxy serializes test-and-set registrations locally,
// giving atomic semantics for one extra round trip.
func (c *Context) proxyRegister(ctx context.Context, item jini.ServiceItem, onlyNew bool) error {
	_, err := c.sh.proxy.Register(ctx, item, c.sh.lease, onlyNew)
	if err != nil {
		return c.commErr(err)
	}
	c.sh.lrm.Manage(c.sh.reg, item.ID, c.sh.lease)
	return nil
}

// locked runs f inside the Eisenberg–McGuire critical section guarding
// the bindings of full's parent context under strict semantics, and
// unguarded otherwise.
func (c *Context) locked(ctx context.Context, full core.Name, f func() error) error {
	if !c.sh.strict {
		return f()
	}
	m, err := c.mutex(ctx, full.Prefix(full.Size()-1))
	if err != nil {
		return err
	}
	return m.WithLock(30*time.Second, f)
}

// bindNew registers item at full only if nothing is bound there: one
// test-and-set at the BindProxy in proxy mode, else check-then-register,
// atomic inside the critical section (strict) or not at all (relaxed).
func (c *Context) bindNew(ctx context.Context, full core.Name, item jini.ServiceItem) error {
	if c.sh.proxy != nil {
		return c.proxyRegister(ctx, item, true)
	}
	return c.locked(ctx, full, func() error {
		_, exists, err := c.fetch(ctx, full)
		if err != nil {
			return err
		}
		if exists {
			return core.ErrAlreadyBound
		}
		return c.register(ctx, item)
	})
}

func (c *Context) bind(ctx context.Context, full core.Name, obj any, attrs *core.Attributes) error {
	if full.IsEmpty() {
		return core.ErrInvalidNameEmpty
	}
	if err := core.Resolve(ctx, core.OpBind, c.base, full, nil, c.probe); err != nil {
		return err
	}
	item, err := itemFor(full, obj, attrs, false)
	if err != nil {
		return err
	}
	return c.bindNew(ctx, full, item)
}

// rebind is a single overwrite-register, Jini's natural primitive.
func (c *Context) rebind(ctx context.Context, full core.Name, obj any, attrs *core.Attributes) error {
	if full.IsEmpty() {
		return core.ErrInvalidNameEmpty
	}
	if err := core.Resolve(ctx, core.OpRebind, c.base, full, nil, c.probe); err != nil {
		return err
	}
	if c.sh.proxy != nil {
		// Proxy mode: the overwrite itself is serialized at the proxy;
		// the attribute-preservation fetch remains a separate read (one
		// extra round trip vs the relaxed path).
		item, err := c.rebindItem(ctx, full, obj, attrs)
		if err != nil {
			return err
		}
		return c.proxyRegister(ctx, item, false)
	}
	// Under strict semantics even rebind runs in the critical section:
	// its read-modify-write (attribute preservation) is otherwise racy.
	// This is the write-path cost Figure 3 quantifies; relaxed mode
	// sacrifices the consistency for throughput.
	return c.locked(ctx, full, func() error {
		item, err := c.rebindItem(ctx, full, obj, attrs)
		if err != nil {
			return err
		}
		return c.register(ctx, item)
	})
}

// rebindItem is the item a rebind registers. JNDI rebind preserves the
// existing attributes unless new ones are supplied (a read-modify-write).
func (c *Context) rebindItem(ctx context.Context, full core.Name, obj any, attrs *core.Attributes) (jini.ServiceItem, error) {
	if attrs == nil {
		if old, ok, err := c.fetch(ctx, full); err != nil {
			return jini.ServiceItem{}, err
		} else if ok {
			if itemIsContext(old) {
				return jini.ServiceItem{}, core.ErrNotContext
			}
			attrs = itemAttrs(old)
		}
	}
	return itemFor(full, obj, attrs, false)
}

// unbind cancels the binding's registration. Unbinding an unbound name
// succeeds (JNDI semantics).
func (c *Context) unbind(ctx context.Context, full core.Name) error {
	if err := core.Resolve(ctx, core.OpUnbind, c.base, full, nil, c.probe); err != nil {
		return err
	}
	id := idFor(full.String())
	c.sh.lrm.Forget(id)
	_ = c.sh.reg.Cancel(ctx, id)
	return nil
}

// rename is lookup + bind + unbind: atomic only under strict semantics
// and only per step, as the paper's provider.
func (c *Context) rename(ctx context.Context, oldFull core.Name, newName string) error {
	res, err := c.read(ctx, core.Op{Kind: core.OpLookup}, oldFull)
	if err != nil {
		return err
	}
	item, ok, err := c.fetch(ctx, oldFull)
	if err != nil || !ok {
		return core.ErrNotFound
	}
	newFull, err := c.full(ctx, newName)
	if err == nil {
		err = c.bind(ctx, newFull, res.Value, itemAttrs(item))
	}
	if err != nil {
		return core.OnNewName(err)
	}
	return c.unbind(ctx, oldFull)
}

// list scans the registry for the bindings under full.
func (c *Context) list(ctx context.Context, full core.Name) ([]core.Binding, error) {
	if err := c.resolveAt(ctx, core.OpList, full); err != nil {
		return nil, err
	}
	items, err := c.allBindings(ctx)
	if err != nil {
		return nil, err
	}
	seen := map[string]*core.Binding{}
	existed := full.IsEmpty()
	for i := range items {
		rest, ok := under(&items[i], full)
		if !ok {
			continue
		}
		existed = true
		if rest.IsEmpty() {
			continue
		}
		child := rest.First()
		if rest.Size() > 1 || itemIsContext(&items[i]) {
			if _, ok := seen[child]; !ok || seen[child].Class != core.ContextReferenceClass {
				seen[child] = &core.Binding{
					Name:   child,
					Class:  core.ContextReferenceClass,
					Object: c.child(full.Append(child)),
				}
			}
			continue
		}
		obj, err := itemObject(&items[i])
		if err != nil {
			continue
		}
		seen[child] = &core.Binding{Name: child, Class: core.ClassOf(obj), Object: obj}
	}
	if !existed {
		return nil, core.Resolve(ctx, core.OpList, c.base, full, core.ErrNotFound, c.probe)
	}
	out := make([]core.Binding, 0, len(seen))
	for _, b := range seen {
		out = append(out, *b)
	}
	return out, nil
}

// destroy removes an empty context-marker item; a missing one counts as
// destroyed.
func (c *Context) destroy(ctx context.Context, full core.Name) error {
	item, ok, err := c.fetch(ctx, full)
	if err != nil || !ok {
		return err
	}
	if !itemIsContext(item) {
		return core.ErrNotContext
	}
	has, err := c.hasChildren(ctx, full)
	if err != nil {
		return err
	}
	if has {
		return core.ErrContextNotEmpty
	}
	id := idFor(full.String())
	c.sh.lrm.Forget(id)
	_ = c.sh.reg.Cancel(ctx, id)
	return nil
}

// modify is read-modify-register, atomic only under strict semantics.
func (c *Context) modify(ctx context.Context, full core.Name, mods []core.AttributeMod) error {
	return c.locked(ctx, full, func() error {
		item, ok, err := c.fetch(ctx, full)
		if err != nil {
			return err
		}
		if !ok {
			return core.ErrNotFound
		}
		attrs := itemAttrs(item)
		if err := attrs.Apply(mods); err != nil {
			return err
		}
		var obj any
		if !itemIsContext(item) {
			obj, err = itemObject(item)
			if err != nil {
				return err
			}
		}
		ni, err := itemFor(full, obj, attrs, itemIsContext(item))
		if err != nil {
			return err
		}
		return c.register(ctx, ni)
	})
}

// search scans the bindings under full, offering each one.
func (c *Context) search(ctx context.Context, s *core.Search, full core.Name) error {
	if err := c.resolveAt(ctx, core.OpSearch, full); err != nil {
		return err
	}
	items, err := c.allBindings(ctx)
	if err != nil {
		return err
	}
	existed := full.IsEmpty()
	for i := range items {
		if s.Stopped() {
			break
		}
		rel, ok := under(&items[i], full)
		if !ok {
			continue
		}
		existed = true
		attrs := itemAttrs(&items[i])
		if !s.Match(rel.Size(), attrs) {
			continue
		}
		if itemIsContext(&items[i]) {
			s.Add(rel, attrs, nil, true)
		} else if obj, oerr := itemObject(&items[i]); oerr == nil {
			s.Add(rel, attrs, obj, false)
		}
	}
	if !existed && !s.Stopped() {
		return core.Resolve(ctx, core.OpSearch, c.base, full, core.ErrNotFound, c.probe)
	}
	return nil
}

// watch registers op.Listener over the LUS remote-event machinery,
// through a jini.LookupCache that names each removal by the item it
// removed; one it cannot name loses the watch, as do the LUS
// connection's death and a lapsed binding lease (§5.1: the lease stops
// being renewable).
func (c *Context) watch(ctx context.Context, full core.Name, op core.Op) (func(), error) {
	if err := c.resolveAt(ctx, core.OpWatch, full); err != nil {
		return nil, err
	}
	var tmpl jini.ServiceTemplate
	switch op.Scope {
	case core.ScopeObject:
		tmpl.Entries = []jini.Entry{jini.NewEntry(nameEntryType, "name", full.String())}
	case core.ScopeOneLevel:
		tmpl.Entries = []jini.Entry{jini.NewEntry(nameEntryType, "parent", full.String())}
	default:
		// Subtree cannot be expressed as an exact-match template; watch
		// all bindings and let core.EventFor keep the subtree's.
		tmpl.Types = []string{bindingType}
	}
	var cancel, lose func()
	lost := false
	lc := jini.NewLookupCache(func(ev jini.ServiceEvent) {
		typ, ok := transitions[ev.Transition]
		switch {
		case !ok || lost:
			return
		case ev.Item == nil:
			// Off the read loop: lose calls the LUS, whose answer it reads.
			lost = true
			go lose()
			return
		}
		name, err := core.ParseName(itemName(ev.Item))
		if err != nil {
			return
		}
		obj, _ := itemObject(ev.Item)
		newV, oldV := obj, any(nil)
		if typ == core.EventObjectRemoved {
			newV, oldV = nil, obj
		}
		if e, ok := core.EventFor(full, op.Scope, typ, name, core.Name{}, newV, oldV); ok {
			op.Listener(e)
		}
	})
	mask := jini.TransitionNoMatchMatch | jini.TransitionMatchMatch | jini.TransitionMatchNoMatch
	unnotify, err := c.sh.reg.Notify(ctx, tmpl, mask, c.sh.lease, lc.Event)
	if err != nil {
		return nil, c.commErr(err)
	}
	var subID int
	cancel, lose = core.WatchLoss(c.sh.reg.Done(), op.Listener, mWatchLost.Inc, func() {
		c.sh.subMu.Lock()
		delete(c.sh.subs, subID)
		c.sh.subMu.Unlock()
		unnotify()
	})
	c.sh.subMu.Lock()
	c.sh.nextSub++
	subID = c.sh.nextSub
	c.sh.subs[subID] = lose
	c.sh.subMu.Unlock()
	items, err := c.sh.reg.Lookup(ctx, tmpl, 0)
	if err != nil {
		cancel()
		return nil, c.commErr(err)
	}
	lc.Seed(items)
	return cancel, nil
}

// transitions maps the LUS's transitions onto naming events.
var transitions = map[int]core.EventType{
	jini.TransitionNoMatchMatch: core.EventObjectAdded,
	jini.TransitionMatchMatch:   core.EventObjectChanged,
	jini.TransitionMatchNoMatch: core.EventObjectRemoved,
}

// NameInNamespace implements core.Context.
func (c *Context) NameInNamespace() (string, error) { return c.base.String(), nil }

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// Close implements core.Context: the last root context for a pooled
// connection stops lease renewals ("until the Java VM exits") and drops
// the registrar; derived contexts share the connection and are no-ops.
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
	return fmt.Sprintf("jinisp.Context{%s base=%q strict=%v}", c.sh.url, c.base.String(), c.sh.strict)
}

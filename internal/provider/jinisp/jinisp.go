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
	"gondi/internal/filter"
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
// states are pooled per (address, environment) so that federation hops —
// which open contexts the initial context never explicitly closes — reuse
// one registrar connection per lookup service instead of leaking one per
// resolution.
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

	// Active watch listeners, notified with EventWatchLost when the
	// renewal manager gives a lease up (LUS unreachable past expiry).
	subMu   sync.Mutex
	subs    map[int]core.Listener
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

// notifyLost fires EventWatchLost at every active watcher — their view
// of the registry can no longer be trusted once a lease has lapsed.
func (sh *shared) notifyLost() {
	sh.subMu.Lock()
	ls := make([]core.Listener, 0, len(sh.subs))
	for _, l := range sh.subs {
		ls = append(ls, l)
	}
	sh.subMu.Unlock()
	for _, l := range ls {
		obs.Default.Counter("gondi_provider_watch_lost_total",
			"Event registrations lost with their wire connection, by provider.",
			obs.Label{K: "system", V: "jini"}).Inc()
		l(core.NamingEvent{Type: core.EventWatchLost})
	}
}

var pool connpool.Pool[*shared]

// Context implements core.DirContext, core.EventContext and
// core.Referenceable over one lookup service.
type Context struct {
	sh    *shared
	base  core.Name
	env   map[string]any
	owner bool // only a root context holds a pool reference
	ref   connpool.Ref
}

var _ core.DirContext = (*Context)(nil)
var _ core.EventContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)

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
			subs:      map[int]core.Listener{},
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
	return &Context{sh: sh, env: env, owner: true}, nil
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

// isBoundaryObj reports whether a bound object is a federation boundary.
func isBoundaryObj(obj any) bool {
	switch obj.(type) {
	case *core.Reference, core.Context:
		return true
	default:
		return false
	}
}

// checkPrefixes raises a federation continuation or ErrNotContext when an
// intermediate component of full is bound to a non-context value.
func (c *Context) checkPrefixes(ctx context.Context, full core.Name) error {
	for i := 1; i < full.Size(); i++ {
		prefix := full.Prefix(i)
		item, ok, err := c.fetch(ctx, prefix)
		if err != nil {
			return err
		}
		if !ok || itemIsContext(item) {
			continue
		}
		obj, err := itemObject(item)
		if err != nil {
			return err
		}
		switch obj.(type) {
		case *core.Reference, core.Context:
			return &core.CannotProceedError{
				Resolved:      obj,
				RemainingName: full.Suffix(i),
				AltName:       prefix.String(),
			}
		default:
			return core.ErrNotContext
		}
	}
	return nil
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
	return &Context{sh: c.sh, base: base, env: c.env}
}

// hasChildren reports whether any binding lives under path.
func (c *Context) hasChildren(ctx context.Context, path core.Name) (bool, error) {
	items, err := c.allBindings(ctx)
	if err != nil {
		return false, err
	}
	prefix := path.String() + "/"
	if path.IsEmpty() {
		return len(items) > 0, nil
	}
	for i := range items {
		if strings.HasPrefix(itemName(&items[i]), prefix) {
			return true, nil
		}
	}
	return false, nil
}

// Lookup implements core.Context.
func (c *Context) Lookup(ctx context.Context, name string) (any, error) {
	if c.sh.Released() {
		return nil, core.Errf("lookup", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	item, ok, err := c.fetch(ctx, full)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if ok {
		if itemIsContext(item) {
			return c.child(full), nil
		}
		obj, err := itemObject(item)
		if err != nil {
			return nil, core.Errf("lookup", name, err)
		}
		return obj, nil
	}
	if err := c.checkPrefixes(ctx, full); err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	// Virtual intermediate context?
	has, err := c.hasChildren(ctx, full)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if has {
		return c.child(full), nil
	}
	return nil, core.Errf("lookup", name, core.ErrNotFound)
}

// LookupLink implements core.Context.
func (c *Context) LookupLink(ctx context.Context, name string) (any, error) {
	return c.Lookup(ctx, name)
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

// Bind implements core.Context: strictly atomic by default (distributed
// lock), or check-then-register in relaxed mode.
func (c *Context) Bind(ctx context.Context, name string, obj any) error {
	return c.BindAttrs(ctx, name, obj, nil)
}

// BindAttrs implements core.DirContext.
func (c *Context) BindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	if c.sh.Released() {
		return core.Errf("bind", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("bind", name, err)
	}
	if full.IsEmpty() {
		return core.Errf("bind", name, core.ErrInvalidNameEmpty)
	}
	if err := c.checkPrefixes(ctx, full); err != nil {
		return core.Errf("bind", name, err)
	}
	item, err := itemFor(full, obj, attrs, false)
	if err != nil {
		return core.Errf("bind", name, err)
	}
	if c.sh.proxy != nil {
		return core.Errf("bind", name, c.proxyRegister(ctx, item, true))
	}
	do := func() error {
		_, exists, err := c.fetch(ctx, full)
		if err != nil {
			return err
		}
		if exists {
			return core.ErrAlreadyBound
		}
		return c.register(ctx, item)
	}
	if c.sh.strict {
		m, err := c.mutex(ctx, full.Prefix(full.Size()-1))
		if err != nil {
			return core.Errf("bind", name, err)
		}
		err = m.WithLock(30*time.Second, do)
		return core.Errf("bind", name, err)
	}
	return core.Errf("bind", name, do())
}

// Rebind implements core.Context: a single overwrite-register, Jini's
// natural primitive.
func (c *Context) Rebind(ctx context.Context, name string, obj any) error {
	return c.rebind(ctx, name, obj, nil, false)
}

// RebindAttrs implements core.DirContext.
func (c *Context) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	return c.rebind(ctx, name, obj, attrs, attrs != nil)
}

func (c *Context) rebind(ctx context.Context, name string, obj any, attrs *core.Attributes, replaceAttrs bool) error {
	if c.sh.Released() {
		return core.Errf("rebind", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("rebind", name, err)
	}
	if full.IsEmpty() {
		return core.Errf("rebind", name, core.ErrInvalidNameEmpty)
	}
	if err := c.checkPrefixes(ctx, full); err != nil {
		return core.Errf("rebind", name, err)
	}
	do := func() error {
		a := attrs
		if !replaceAttrs {
			// JNDI rebind preserves existing attributes unless new
			// ones are supplied (a read-modify-write).
			if old, ok, err := c.fetch(ctx, full); err != nil {
				return err
			} else if ok {
				if itemIsContext(old) {
					return core.ErrNotContext
				}
				a = itemAttrs(old)
			}
		}
		item, err := itemFor(full, obj, a, false)
		if err != nil {
			return err
		}
		return c.register(ctx, item)
	}
	if c.sh.proxy != nil {
		// Proxy mode: the overwrite itself is serialized at the proxy;
		// the attribute-preservation fetch above remains a separate
		// read (one extra round trip vs the relaxed path).
		a := attrs
		if !replaceAttrs {
			if old, ok, err := c.fetch(ctx, full); err != nil {
				return core.Errf("rebind", name, err)
			} else if ok {
				if itemIsContext(old) {
					return core.Errf("rebind", name, core.ErrNotContext)
				}
				a = itemAttrs(old)
			}
		}
		item, err := itemFor(full, obj, a, false)
		if err != nil {
			return core.Errf("rebind", name, err)
		}
		return core.Errf("rebind", name, c.proxyRegister(ctx, item, false))
	}
	// Under strict semantics even rebind runs in the critical section:
	// its read-modify-write (attribute preservation) is otherwise racy.
	// This is the write-path cost Figure 3 quantifies; relaxed mode
	// sacrifices the consistency for throughput.
	if c.sh.strict {
		m, merr := c.mutex(ctx, full.Prefix(full.Size()-1))
		if merr != nil {
			return core.Errf("rebind", name, merr)
		}
		return core.Errf("rebind", name, m.WithLock(30*time.Second, do))
	}
	return core.Errf("rebind", name, do())
}

// Unbind implements core.Context.
func (c *Context) Unbind(ctx context.Context, name string) error {
	if c.sh.Released() {
		return core.Errf("unbind", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("unbind", name, err)
	}
	if err := c.checkPrefixes(ctx, full); err != nil {
		return core.Errf("unbind", name, err)
	}
	id := idFor(full.String())
	c.sh.lrm.Forget(id)
	if err := c.sh.reg.Cancel(ctx, id); err != nil {
		// Unbinding an unbound name succeeds (JNDI semantics); only
		// transport failures surface.
		if c.sh.reg == nil {
			return core.Errf("unbind", name, err)
		}
	}
	return nil
}

// Rename implements core.Context (lookup + bind + unbind; atomic only
// under strict semantics and only per-step, as the paper's provider).
func (c *Context) Rename(ctx context.Context, oldName, newName string) error {
	obj, err := c.Lookup(ctx, oldName)
	if err != nil {
		return err
	}
	fullOld, err := c.full(ctx, oldName)
	if err != nil {
		return core.Errf("rename", oldName, err)
	}
	item, ok, err := c.fetch(ctx, fullOld)
	if err != nil || !ok {
		return core.Errf("rename", oldName, core.ErrNotFound)
	}
	attrs := itemAttrs(item)
	if err := c.BindAttrs(ctx, newName, obj, attrs); err != nil {
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

// ListBindings implements core.Context via a registry scan.
func (c *Context) ListBindings(ctx context.Context, name string) ([]core.Binding, error) {
	if c.sh.Released() {
		return nil, core.Errf("list", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	if !full.IsEmpty() {
		item, ok, ferr := c.fetch(ctx, full)
		if ferr != nil {
			return nil, core.Errf("list", name, ferr)
		}
		if ok && !itemIsContext(item) {
			// A bound reference to a foreign context: continue there.
			if obj, oerr := itemObject(item); oerr == nil && isBoundaryObj(obj) {
				return nil, &core.CannotProceedError{
					Resolved: obj, RemainingName: core.Name{}, AltName: full.String(),
				}
			}
			return nil, core.Errf("list", name, core.ErrNotContext)
		}
	}
	items, err := c.allBindings(ctx)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	prefix := ""
	if !full.IsEmpty() {
		prefix = full.String() + "/"
	}
	seen := map[string]*core.Binding{}
	existed := full.IsEmpty()
	for i := range items {
		n := itemName(&items[i])
		if prefix != "" && !strings.HasPrefix(n, prefix) {
			if n == full.String() {
				existed = true
			}
			continue
		}
		existed = true
		rest := strings.TrimPrefix(n, prefix)
		restName, err := core.ParseName(rest)
		if err != nil || restName.IsEmpty() {
			continue
		}
		child := restName.First()
		if restName.Size() > 1 || itemIsContext(&items[i]) {
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
		return nil, core.Errf("list", name, core.ErrNotFound)
	}
	out := make([]core.Binding, 0, len(seen))
	for _, b := range seen {
		out = append(out, *b)
	}
	sortBindings(out)
	return out, nil
}

func sortBindings(bs []core.Binding) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Name < bs[j-1].Name; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// CreateSubcontext implements core.Context by registering an explicit
// context-marker item.
func (c *Context) CreateSubcontext(ctx context.Context, name string) (core.Context, error) {
	dc, err := c.CreateSubcontextAttrs(ctx, name, nil)
	if err != nil {
		return nil, err
	}
	return dc, nil
}

// CreateSubcontextAttrs implements core.DirContext.
func (c *Context) CreateSubcontextAttrs(ctx context.Context, name string, attrs *core.Attributes) (core.DirContext, error) {
	if c.sh.Released() {
		return nil, core.Errf("createSubcontext", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	if err := c.checkPrefixes(ctx, full); err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	item, err := itemFor(full, nil, attrs, true)
	if err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	do := func() error {
		_, exists, err := c.fetch(ctx, full)
		if err != nil {
			return err
		}
		if exists {
			return core.ErrAlreadyBound
		}
		return c.register(ctx, item)
	}
	switch {
	case c.sh.proxy != nil:
		err = c.proxyRegister(ctx, item, true)
	case c.sh.strict:
		m, merr := c.mutex(ctx, full.Prefix(full.Size()-1))
		if merr != nil {
			return nil, core.Errf("createSubcontext", name, merr)
		}
		err = m.WithLock(30*time.Second, do)
	default:
		err = do()
	}
	if err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	return c.child(full), nil
}

// DestroySubcontext implements core.Context.
func (c *Context) DestroySubcontext(ctx context.Context, name string) error {
	if c.sh.Released() {
		return core.Errf("destroySubcontext", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("destroySubcontext", name, err)
	}
	item, ok, err := c.fetch(ctx, full)
	if err != nil {
		return core.Errf("destroySubcontext", name, err)
	}
	if !ok {
		return nil
	}
	if !itemIsContext(item) {
		return core.Errf("destroySubcontext", name, core.ErrNotContext)
	}
	has, err := c.hasChildren(ctx, full)
	if err != nil {
		return core.Errf("destroySubcontext", name, err)
	}
	if has {
		return core.Errf("destroySubcontext", name, core.ErrContextNotEmpty)
	}
	id := idFor(full.String())
	c.sh.lrm.Forget(id)
	_ = c.sh.reg.Cancel(ctx, id)
	return nil
}

// GetAttributes implements core.DirContext.
func (c *Context) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	if c.sh.Released() {
		return nil, core.Errf("getAttributes", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	item, ok, err := c.fetch(ctx, full)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	if !ok {
		if err := c.checkPrefixes(ctx, full); err != nil {
			return nil, core.Errf("getAttributes", name, err)
		}
		has, herr := c.hasChildren(ctx, full)
		if herr == nil && has {
			return &core.Attributes{}, nil // virtual context: no attrs
		}
		return nil, core.Errf("getAttributes", name, core.ErrNotFound)
	}
	return itemAttrs(item).Select(attrIDs...), nil
}

// ModifyAttributes implements core.DirContext (read-modify-register;
// atomic only under strict semantics).
func (c *Context) ModifyAttributes(ctx context.Context, name string, mods []core.AttributeMod) error {
	if c.sh.Released() {
		return core.Errf("modifyAttributes", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	do := func() error {
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
	}
	if c.sh.strict {
		m, merr := c.mutex(ctx, full.Prefix(full.Size()-1))
		if merr != nil {
			return core.Errf("modifyAttributes", name, merr)
		}
		return core.Errf("modifyAttributes", name, m.WithLock(30*time.Second, do))
	}
	return core.Errf("modifyAttributes", name, do())
}

// Search implements core.DirContext by scanning bindings under the base.
func (c *Context) Search(ctx context.Context, name, filterStr string, controls *core.SearchControls) ([]core.SearchResult, error) {
	if c.sh.Released() {
		return nil, core.Errf("search", name, core.ErrClosed)
	}
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	f, err := filter.Parse(filterStr)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	if controls == nil {
		controls = &core.SearchControls{Scope: core.ScopeSubtree}
	}
	if !full.IsEmpty() {
		if item, ok, ferr := c.fetch(ctx, full); ferr == nil && ok && !itemIsContext(item) {
			if obj, oerr := itemObject(item); oerr == nil && isBoundaryObj(obj) {
				return nil, &core.CannotProceedError{
					Resolved: obj, RemainingName: core.Name{}, AltName: full.String(),
				}
			}
		}
	}
	items, err := c.allBindings(ctx)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	baseStr := full.String()
	var out []core.SearchResult
	var limitHit bool
	for i := range items {
		n := itemName(&items[i])
		var rel string
		switch {
		case baseStr == "":
			rel = n
		case n == baseStr:
			rel = ""
		case strings.HasPrefix(n, baseStr+"/"):
			rel = strings.TrimPrefix(n, baseStr+"/")
		default:
			continue
		}
		relName, perr := core.ParseName(rel)
		if perr != nil {
			continue
		}
		depth := relName.Size()
		switch controls.Scope {
		case core.ScopeObject:
			if depth != 0 {
				continue
			}
		case core.ScopeOneLevel:
			if depth != 1 {
				continue
			}
		}
		attrs := itemAttrs(&items[i])
		if !attrs.MatchesFilter(f) {
			continue
		}
		r := core.SearchResult{Name: rel, Attributes: attrs.Select(controls.ReturnAttrs...)}
		if itemIsContext(&items[i]) {
			r.Class = core.ContextReferenceClass
		} else {
			obj, oerr := itemObject(&items[i])
			if oerr != nil {
				continue
			}
			r.Class = core.ClassOf(obj)
			if controls.ReturnObject {
				r.Object = obj
			}
		}
		out = append(out, r)
		if controls.CountLimit > 0 && len(out) >= controls.CountLimit {
			limitHit = true
			break
		}
	}
	sortResults(out)
	if limitHit {
		return out, &core.LimitExceededError{Limit: controls.CountLimit}
	}
	return out, nil
}

func sortResults(rs []core.SearchResult) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Name < rs[j-1].Name; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Watch implements core.EventContext over the LUS remote-event machinery.
func (c *Context) Watch(ctx context.Context, target string, scope core.SearchScope, l core.Listener) (func(), error) {
	if c.sh.Released() {
		return nil, core.Errf("watch", target, core.ErrClosed)
	}
	full, err := c.full(ctx, target)
	if err != nil {
		return nil, core.Errf("watch", target, err)
	}
	if !full.IsEmpty() {
		if item, ok, ferr := c.fetch(ctx, full); ferr == nil && ok && !itemIsContext(item) {
			if obj, oerr := itemObject(item); oerr == nil && isBoundaryObj(obj) {
				return nil, &core.CannotProceedError{
					Resolved: obj, RemainingName: core.Name{}, AltName: full.String(),
				}
			}
		}
	}
	var tmpl jini.ServiceTemplate
	switch scope {
	case core.ScopeObject:
		tmpl.Entries = []jini.Entry{jini.NewEntry(nameEntryType, "name", full.String())}
	case core.ScopeOneLevel:
		tmpl.Entries = []jini.Entry{jini.NewEntry(nameEntryType, "parent", full.String())}
	default:
		// Subtree cannot be expressed as an exact-match template; watch
		// all bindings and filter client-side.
		tmpl.Types = []string{bindingType}
	}
	prefix := ""
	if !full.IsEmpty() {
		prefix = full.String() + "/"
	}
	baseSize := full.Size()
	mask := jini.TransitionNoMatchMatch | jini.TransitionMatchMatch | jini.TransitionMatchNoMatch
	cancel, err := c.sh.reg.Notify(ctx, tmpl, mask, c.sh.lease, func(ev jini.ServiceEvent) {
		var name string
		var newVal any
		if ev.Item != nil {
			name = itemName(ev.Item)
			if !itemIsContext(ev.Item) {
				newVal, _ = itemObject(ev.Item)
			}
		}
		if scope == core.ScopeSubtree && name != "" {
			if prefix != "" && !strings.HasPrefix(name, prefix) && name != full.String() {
				return
			}
		}
		relName, err := core.ParseName(name)
		if err != nil {
			return
		}
		rel := name
		if relName.Size() >= baseSize && relName.Prefix(baseSize).Equal(full) {
			rel = relName.Suffix(baseSize).String()
		}
		var typ core.EventType
		switch ev.Transition {
		case jini.TransitionNoMatchMatch:
			typ = core.EventObjectAdded
		case jini.TransitionMatchMatch:
			typ = core.EventObjectChanged
		case jini.TransitionMatchNoMatch:
			typ = core.EventObjectRemoved
		default:
			return
		}
		l(core.NamingEvent{Type: typ, Name: rel, NewValue: newVal})
	})
	if err != nil {
		return nil, core.Errf("watch", target, c.commErr(err))
	}
	// A lapsed binding lease (LUS unreachable past expiry) also fires
	// EventWatchLost through the shared subscription list.
	c.sh.subMu.Lock()
	c.sh.nextSub++
	subID := c.sh.nextSub
	c.sh.subs[subID] = l
	c.sh.subMu.Unlock()
	// Event registrations die with the LUS connection (§5.1: the lease
	// stops being renewable). Report that as EventWatchLost so consumers
	// caching on the strength of this registration degrade safely.
	stop := make(chan struct{})
	go func() {
		select {
		case <-c.sh.reg.Done():
			obs.Default.Counter("gondi_provider_watch_lost_total",
				"Event registrations lost with their wire connection, by provider.",
				obs.Label{K: "system", V: "jini"}).Inc()
			l(core.NamingEvent{Type: core.EventWatchLost})
		case <-stop:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			c.sh.subMu.Lock()
			delete(c.sh.subs, subID)
			c.sh.subMu.Unlock()
			cancel()
		})
	}, nil
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

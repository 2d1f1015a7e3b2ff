// Package dnssp is the JNDI service provider for DNS — one of the
// pre-existing providers the paper federates with (§6, Figure 6). It is
// read-only, like the standard JNDI DNS provider: DNS's world-scale
// distribution comes at the cost of remote updates, which is exactly why
// the paper anchors the federation's *root* in DNS and delegates writes
// to HDNS and the leaf services.
//
// Name mapping: the URL path and further composite name components are
// domain labels, leftmost = topmost. "dns://server/global/emory/mathcs"
// resolves the domain "mathcs.emory.global.". A domain whose TXT record
// is a URL with a registered scheme (e.g. "hdns://host:port") is a
// federation boundary: resolution continues in that naming system — the
// paper's "contact DNS to find the address of a nearest HDNS node".
package dnssp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/core"
	"gondi/internal/dnssrv"
	"gondi/internal/failover"
	"gondi/internal/filter"
	"gondi/internal/obs"
)

// Register installs the "dns" URL scheme provider. The URL authority may
// list several name servers ("dns://ns1:53,ns2:53/..."); the provider
// resolves against the first server whose circuit breaker would admit
// traffic, so queries route around a server that has stopped answering.
// (Opening is lazy — no wire traffic — so the choice is by breaker
// state, not an active probe; per-query gating happens in dnssrv.)
func Register() {
	core.RegisterProvider("dns", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		if err := core.CtxErr(ctx); err != nil {
			return nil, core.Name{}, err
		}
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		eps := failover.Endpoints(u.Authority)
		if len(eps) == 0 {
			eps = []string{u.Authority}
		}
		server := dnssrv.HostFromAuthority(eps[0], "53")
		for _, ep := range eps {
			addr := dnssrv.HostFromAuthority(ep, "53")
			if breaker.For(addr).Ready() {
				server = addr
				break
			}
		}
		dc := &Context{
			resolver: resolverFor(server, env),
			url:      "dns://" + u.Authority,
			env:      env,
			ttl:      newTTLMemo(),
		}
		return obs.Instrument(dc, "provider", "dns"), u.Path, nil
	}))
}

// The resolver pool: one dnssrv.Resolver per (server, core.EnvPoolID),
// shared by every context opened with that key. A Resolver pipelines
// concurrent exchanges over one socket and closes that socket and its
// reader goroutine itself after a second with no query outstanding, so
// the pool needs no reference count and contexts need no Close: an entry
// nobody queries is a struct. (A resolver per context would hold a socket,
// a goroutine and a 64 KB buffer per open for that second, and
// InitialContext opens a context per URL operation.)
type poolKey struct{ server, id string }

var (
	poolMu sync.Mutex
	pool   = map[poolKey]*dnssrv.Resolver{}
)

func resolverFor(server string, env map[string]any) *dnssrv.Resolver {
	key := poolKey{server: server}
	switch id := env[core.EnvPoolID].(type) {
	case nil:
	case string:
		key.id = id
	default:
		key.id = fmt.Sprint(id)
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	r, ok := pool[key]
	if !ok {
		r = dnssrv.NewResolver(server)
		pool[key] = r
	}
	return r
}

// Context implements a read-only core.DirContext over a DNS server.
type Context struct {
	resolver *dnssrv.Resolver
	url      string
	base     core.Name // domain labels, topmost first
	env      map[string]any
	ttl      *ttlMemo // shared by all children of one provider root
}

// ttlMemo remembers the minimum record TTL observed per domain, so a
// caching layer can key entry freshness off real DNS TTLs instead of a
// blanket default (see AdviseTTL).
type ttlMemo struct {
	mu sync.Mutex
	m  map[string]time.Duration
}

func newTTLMemo() *ttlMemo { return &ttlMemo{m: map[string]time.Duration{}} }

func (t *ttlMemo) note(domain string, rrs []dnssrv.RR) {
	if t == nil || len(rrs) == 0 {
		return
	}
	var min time.Duration
	for _, rr := range rrs {
		d := time.Duration(rr.TTL) * time.Second
		if d <= 0 {
			continue
		}
		if min == 0 || d < min {
			min = d
		}
	}
	if min <= 0 {
		return
	}
	t.mu.Lock()
	t.m[domain] = min
	t.mu.Unlock()
}

func (t *ttlMemo) get(domain string) (time.Duration, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.m[domain]
	return d, ok
}

// AdviseTTL reports the minimum record TTL observed for the named domain,
// implementing the caching layer's TTLAdvisor contract: cached DNS answers
// should not outlive the records they were built from.
func (c *Context) AdviseTTL(name string) (time.Duration, bool) {
	n, err := core.ParseName(name)
	if err != nil {
		return 0, false
	}
	return c.ttl.get(domainFor(c.base.Concat(n)))
}

var _ core.DirContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)

// domainFor converts a path (topmost label first) to a canonical domain.
func domainFor(n core.Name) string {
	comps := n.Components()
	rev := make([]string, len(comps))
	for i, c := range comps {
		rev[len(comps)-1-i] = c
	}
	return dnssrv.CanonicalName(strings.Join(rev, "."))
}

func (c *Context) child(base core.Name) *Context {
	return &Context{resolver: c.resolver, url: c.url, base: base, env: c.env, ttl: c.ttl}
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

// records fetches all records at the named domain. It returns
// (nil, false, nil) on NXDOMAIN.
func (c *Context) records(ctx context.Context, n core.Name) ([]dnssrv.RR, bool, error) {
	rrs, err := c.resolver.Query(ctx, domainFor(n), dnssrv.TypeANY)
	if dnssrv.IsNXDomain(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, &core.CommunicationError{Endpoint: c.url, Err: err}
	}
	// NODATA (an empty non-terminal) arrives as NoError with no answers:
	// the name exists but carries no records.
	c.ttl.note(domainFor(n), rrs)
	return rrs, true, nil
}

// boundaryURL extracts a federation URL from a domain's TXT records.
func boundaryURL(rrs []dnssrv.RR) (string, bool) {
	for _, rr := range rrs {
		if rr.Type != dnssrv.TypeTXT {
			continue
		}
		for _, txt := range rr.Txt {
			if core.IsURLName(txt) {
				if u, err := core.ParseURLName(txt); err == nil {
					if _, ok := core.LookupProvider(u.Scheme); ok {
						return txt, true
					}
				}
			}
		}
	}
	return "", false
}

// exists reports whether a domain exists (has records or descendants).
func (c *Context) exists(ctx context.Context, n core.Name) (bool, []dnssrv.RR, error) {
	rrs, found, err := c.records(ctx, n)
	if err != nil {
		return false, nil, err
	}
	if found && len(rrs) > 0 {
		return true, rrs, nil
	}
	// Empty non-terminal: NODATA at an existing name, or NXDOMAIN. Our
	// server answers NODATA (empty, no error) for empty non-terminals
	// and NXDOMAIN otherwise, so "found" distinguishes them.
	return found, rrs, nil
}

// Lookup implements core.Context. Domains resolve to subcontexts; a TXT
// record holding a provider URL resolves to a context Reference
// (federation); other leaf data resolves to the TXT strings themselves.
func (c *Context) Lookup(ctx context.Context, name string) (any, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	ok, rrs, err := c.exists(ctx, full)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if ok {
		if url, isBoundary := boundaryURL(rrs); isBoundary {
			return core.NewContextReference(url), nil
		}
		return c.child(full), nil
	}
	// NXDOMAIN: a prefix may be a federation boundary.
	if cpe, cerr := c.prefixBoundary(ctx, full); cerr != nil {
		return nil, core.Errf("lookup", name, cerr)
	} else if cpe != nil {
		return nil, cpe
	}
	return nil, core.Errf("lookup", name, core.ErrNotFound)
}

// contextBoundary raises a continuation when full itself (or a prefix) is
// a federation anchor — used by context-level operations (List, Search)
// that must continue in the foreign naming system.
func (c *Context) contextBoundary(ctx context.Context, full core.Name) (*core.CannotProceedError, error) {
	ok, rrs, err := c.exists(ctx, full)
	if err != nil {
		return nil, err
	}
	if ok {
		if url, isBoundary := boundaryURL(rrs); isBoundary {
			return &core.CannotProceedError{
				Resolved:      url,
				RemainingName: core.Name{},
				AltName:       full.String(),
			}, nil
		}
		return nil, nil
	}
	return c.prefixBoundary(ctx, full)
}

// LookupLink implements core.Context.
func (c *Context) LookupLink(ctx context.Context, name string) (any, error) {
	return c.Lookup(ctx, name)
}

// AttrSOASerial is the attribute ID under which a zone apex exposes its
// SOA serial alone. Asking for exactly this attribute takes a dedicated
// fast path: one SOA query instead of the ANY query + full record
// mapping, so a client can change-check a zone cheaply.
const AttrSOASerial = "soa-serial"

// soaSerial fetches the domain's SOA serial with a single TypeSOA query.
// It returns (0, false, nil) when the domain has no SOA record.
func (c *Context) soaSerial(ctx context.Context, n core.Name) (uint32, bool, error) {
	rrs, err := c.resolver.Query(ctx, domainFor(n), dnssrv.TypeSOA)
	if dnssrv.IsNXDomain(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, &core.CommunicationError{Endpoint: c.url, Err: err}
	}
	c.ttl.note(domainFor(n), rrs)
	for _, rr := range rrs {
		if rr.Type == dnssrv.TypeSOA && rr.SOA != nil {
			return rr.SOA.Serial, true, nil
		}
	}
	return 0, false, nil
}

// GetAttributes implements core.DirContext: the domain's resource records
// become attributes keyed by record type.
func (c *Context) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	if len(attrIDs) == 1 && attrIDs[0] == AttrSOASerial {
		// Serial-only probe: answer from one SOA query, skipping the ANY
		// query and full record mapping below.
		serial, ok, serr := c.soaSerial(ctx, full)
		if serr != nil {
			return nil, core.Errf("getAttributes", name, serr)
		}
		attrs := &core.Attributes{}
		if ok {
			attrs.Add(AttrSOASerial, fmt.Sprintf("%d", serial))
		}
		return attrs, nil
	}
	ok, rrs, err := c.exists(ctx, full)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	if !ok {
		if cpe, cerr := c.prefixBoundary(ctx, full); cerr != nil {
			return nil, core.Errf("getAttributes", name, cerr)
		} else if cpe != nil {
			return nil, cpe
		}
		return nil, core.Errf("getAttributes", name, core.ErrNotFound)
	}
	return recordAttrs(rrs).Select(attrIDs...), nil
}

// prefixBoundary scans a name's prefixes for a federation anchor (TXT
// record holding a provider URL) and returns the continuation to raise.
func (c *Context) prefixBoundary(ctx context.Context, full core.Name) (*core.CannotProceedError, error) {
	for i := c.base.Size() + 1; i < full.Size(); i++ {
		pok, prrs, perr := c.exists(ctx, full.Prefix(i))
		if perr != nil {
			return nil, perr
		}
		if !pok {
			return nil, nil
		}
		if url, isBoundary := boundaryURL(prrs); isBoundary {
			return &core.CannotProceedError{
				Resolved:      url,
				RemainingName: full.Suffix(i),
				AltName:       full.Prefix(i).String(),
			}, nil
		}
	}
	return nil, nil
}

func recordAttrs(rrs []dnssrv.RR) *core.Attributes {
	attrs := &core.Attributes{}
	for _, rr := range rrs {
		switch rr.Type {
		case dnssrv.TypeA, dnssrv.TypeAAAA:
			attrs.Add(dnssrv.TypeString(rr.Type), rr.A.String())
		case dnssrv.TypeTXT:
			attrs.Add("TXT", rr.Txt...)
		case dnssrv.TypeSRV:
			attrs.Add("SRV", fmt.Sprintf("%d %d %d %s", rr.Pref, rr.Weight, rr.Port, rr.Target))
		case dnssrv.TypeCNAME, dnssrv.TypeNS, dnssrv.TypePTR:
			attrs.Add(dnssrv.TypeString(rr.Type), rr.Target)
		case dnssrv.TypeMX:
			attrs.Add("MX", fmt.Sprintf("%d %s", rr.Pref, rr.Target))
		case dnssrv.TypeSOA:
			if rr.SOA != nil {
				attrs.Add("SOA", fmt.Sprintf("%s %s %d", rr.SOA.MName, rr.SOA.RName, rr.SOA.Serial))
				attrs.Add(AttrSOASerial, fmt.Sprintf("%d", rr.SOA.Serial))
			}
		}
	}
	return attrs
}

// transferredChildren lists direct child labels of a domain via AXFR.
func (c *Context) transferredChildren(ctx context.Context, full core.Name) (map[string][]dnssrv.RR, error) {
	domain := domainFor(full)
	rrs, err := c.resolver.TransferZone(ctx, domain)
	if err != nil {
		return nil, &core.CommunicationError{Endpoint: c.url, Err: err}
	}
	suffix := "." + domain
	if domain == "." {
		suffix = "."
	}
	out := map[string][]dnssrv.RR{}
	for _, rr := range rrs {
		n := rr.Name
		if n == domain || !strings.HasSuffix(n, suffix) {
			continue
		}
		rest := strings.TrimSuffix(n, suffix)
		if i := strings.LastIndexByte(rest, '.'); i >= 0 {
			rest = rest[i+1:]
		}
		if rest == "" {
			continue
		}
		if strings.Count(strings.TrimSuffix(n, suffix), ".") == 0 {
			out[rest] = append(out[rest], rr)
		} else if _, seen := out[rest]; !seen {
			out[rest] = nil // child exists only through descendants
		}
	}
	return out, nil
}

// List implements core.Context via zone transfer.
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

// ListBindings implements core.Context.
func (c *Context) ListBindings(ctx context.Context, name string) ([]core.Binding, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	if cpe, cerr := c.contextBoundary(ctx, full); cerr != nil {
		return nil, core.Errf("list", name, cerr)
	} else if cpe != nil {
		return nil, cpe
	}
	kids, err := c.transferredChildren(ctx, full)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	out := make([]core.Binding, 0, len(kids))
	for label := range kids {
		out = append(out, core.Binding{
			Name:   label,
			Class:  core.ContextReferenceClass,
			Object: c.child(full.Append(label)),
		})
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

// Search implements core.DirContext over the transferred zone subtree.
func (c *Context) Search(ctx context.Context, name, filterStr string, controls *core.SearchControls) ([]core.SearchResult, error) {
	full, err := c.full(ctx, name)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	f, err := filter.Parse(filterStr)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	if cpe, cerr := c.contextBoundary(ctx, full); cerr != nil {
		return nil, core.Errf("search", name, cerr)
	} else if cpe != nil {
		return nil, cpe
	}
	if controls == nil {
		controls = &core.SearchControls{Scope: core.ScopeSubtree}
	}
	domain := domainFor(full)
	rrs, err := c.resolver.TransferZone(ctx, domain)
	if err != nil {
		return nil, core.Errf("search", name, &core.CommunicationError{Endpoint: c.url, Err: err})
	}
	byName := map[string][]dnssrv.RR{}
	for _, rr := range rrs {
		byName[rr.Name] = append(byName[rr.Name], rr)
	}
	var out []core.SearchResult
	for dn, recs := range byName {
		if dn != domain && !strings.HasSuffix(dn, "."+domain) && domain != "." {
			continue
		}
		rel := relPath(dn, domain)
		depth := 0
		if rel != "" {
			depth = strings.Count(rel, "/") + 1
		}
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
		attrs := recordAttrs(recs)
		if !attrs.MatchesFilter(f) {
			continue
		}
		out = append(out, core.SearchResult{
			Name:       rel,
			Class:      core.ContextReferenceClass,
			Attributes: attrs.Select(controls.ReturnAttrs...),
		})
		if controls.CountLimit > 0 && len(out) >= controls.CountLimit {
			return out, &core.LimitExceededError{Limit: controls.CountLimit}
		}
	}
	return out, nil
}

// relPath converts a domain under base into a path (topmost first),
// e.g. ("mathcs.emory.global.", "global.") -> "emory/mathcs".
func relPath(domain, base string) string {
	rest := strings.TrimSuffix(domain, base)
	rest = strings.TrimSuffix(rest, ".")
	if rest == "" {
		return ""
	}
	labels := strings.Split(rest, ".")
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		labels[i], labels[j] = labels[j], labels[i]
	}
	return strings.Join(labels, "/")
}

// Write operations on DNS itself are unsupported: DNS updates are
// administrative (exactly the trade-off the paper describes in §1). But a
// write whose name crosses a federation anchor continues in the
// anchored naming system — writes through the DNS *root* of the paper's
// hierarchy land on HDNS or the leaf services.

func (c *Context) writeBoundary(ctx context.Context, op, name string) error {
	full, err := c.full(ctx, name)
	if err != nil {
		return core.Errf(op, name, err)
	}
	if cpe, cerr := c.prefixBoundary(ctx, full); cerr != nil {
		return core.Errf(op, name, cerr)
	} else if cpe != nil {
		return cpe
	}
	return core.Errf(op, name, core.ErrNotSupported)
}

// Bind implements core.Context (unsupported locally; federates).
func (c *Context) Bind(ctx context.Context, name string, obj any) error {
	return c.writeBoundary(ctx, "bind", name)
}

// BindAttrs implements core.DirContext (unsupported locally; federates).
func (c *Context) BindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	return c.writeBoundary(ctx, "bind", name)
}

// Rebind implements core.Context (unsupported locally; federates).
func (c *Context) Rebind(ctx context.Context, name string, obj any) error {
	return c.writeBoundary(ctx, "rebind", name)
}

// RebindAttrs implements core.DirContext (unsupported locally; federates).
func (c *Context) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	return c.writeBoundary(ctx, "rebind", name)
}

// Unbind implements core.Context (unsupported locally; federates).
func (c *Context) Unbind(ctx context.Context, name string) error {
	return c.writeBoundary(ctx, "unbind", name)
}

// Rename implements core.Context (unsupported locally; federates).
func (c *Context) Rename(ctx context.Context, oldName, newName string) error {
	return c.writeBoundary(ctx, "rename", oldName)
}

// CreateSubcontext implements core.Context (unsupported locally;
// federates).
func (c *Context) CreateSubcontext(ctx context.Context, name string) (core.Context, error) {
	return nil, c.writeBoundary(ctx, "createSubcontext", name)
}

// CreateSubcontextAttrs implements core.DirContext (unsupported locally;
// federates).
func (c *Context) CreateSubcontextAttrs(ctx context.Context, name string, attrs *core.Attributes) (core.DirContext, error) {
	return nil, c.writeBoundary(ctx, "createSubcontext", name)
}

// DestroySubcontext implements core.Context (unsupported locally;
// federates).
func (c *Context) DestroySubcontext(ctx context.Context, name string) error {
	return c.writeBoundary(ctx, "destroySubcontext", name)
}

// ModifyAttributes implements core.DirContext (unsupported locally;
// federates).
func (c *Context) ModifyAttributes(ctx context.Context, name string, mods []core.AttributeMod) error {
	return c.writeBoundary(ctx, "modifyAttributes", name)
}

// NameInNamespace implements core.Context.
func (c *Context) NameInNamespace() (string, error) { return c.base.String(), nil }

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// Close implements core.Context: nothing to release, the pooled resolver
// drops its own socket when idle.
func (c *Context) Close() error { return nil }

// Reference implements core.Referenceable.
func (c *Context) Reference() (*core.Reference, error) {
	url := c.url
	if !c.base.IsEmpty() {
		url += "/" + c.base.String()
	}
	return core.NewContextReference(url), nil
}

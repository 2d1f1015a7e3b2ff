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
	"gondi/internal/obs"
)

// Register installs the "dns" URL scheme provider. The URL authority may
// list several name servers ("dns://ns1:53,ns2:53/..."); the provider
// resolves against the first server whose circuit breaker would admit
// traffic, so queries route around a server that has stopped answering.
// (Opening is lazy — no wire traffic — so the choice is by breaker
// state, not an active probe; per-query gating happens in dnssrv.) The
// choice holds for the context's life: an InitialContext keeps the root
// and opens it again, choosing afresh, once Dead reports the chosen
// server's breaker no longer ready.
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
		dc.Doer = dc
		return obs.Instrument(dc, "provider", "dns"), u.Path, nil
	}))
}

// The resolver pool: one dnssrv.Resolver per (server, core.EnvPoolID),
// shared by every context opened with that key. A Resolver pipelines
// concurrent exchanges over one socket and closes that socket and its
// reader goroutine itself after a second with no query outstanding, so
// the pool needs no reference count and contexts need no Close: an entry
// nobody queries is a struct. (A resolver per context would hold a socket,
// a goroutine and a 64 KB buffer per open for that second, and every
// InitialContext and every cache opens its own dns:// roots.)
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
	core.OpContext // the typed surface, spelled over Do
	resolver       *dnssrv.Resolver
	url            string
	base           core.Name // domain labels, topmost first
	env            map[string]any
	ttl            *ttlMemo // shared by all children of one provider root
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
var _ core.Liveness = (*Context)(nil)

// domainFor converts a path (topmost label first) to a canonical domain,
// in one allocation when the path already is lower-case.
func domainFor(n core.Name) string {
	if n.IsEmpty() {
		return "."
	}
	if top := n.Get(0); top == "" || !plainLabelEnd(top[len(top)-1]) {
		// CanonicalName trims what the joined name ends in; join first.
		labels := make([]string, n.Size())
		for i := range labels {
			labels[len(labels)-1-i] = n.Get(i)
		}
		return dnssrv.CanonicalName(strings.Join(labels, "."))
	}
	size := 0
	for i := 0; i < n.Size(); i++ {
		size += len(n.Get(i)) + 1
	}
	var b strings.Builder
	b.Grow(size)
	for i := n.Size() - 1; i >= 0; i-- {
		b.WriteString(n.Get(i))
		b.WriteByte('.')
	}
	return dnssrv.CanonicalName(b.String())
}

// plainLabelEnd reports whether a domain may end in c followed by the
// root dot: c is neither a dot nor a byte that may end white space.
func plainLabelEnd(c byte) bool {
	return c < 0x80 && c != '.' && c != ' ' && (c < '\t' || c > '\r')
}

func (c *Context) child(base core.Name) *Context {
	ch := &Context{resolver: c.resolver, url: c.url, base: base, env: c.env, ttl: c.ttl}
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

// records fetches all records at the named domain. It returns
// (nil, false, nil) on NXDOMAIN.
func (c *Context) records(ctx context.Context, n core.Name) ([]dnssrv.RR, bool, error) {
	domain := domainFor(n)
	rrs, err := c.resolver.Query(ctx, domain, dnssrv.TypeANY)
	if dnssrv.IsNXDomain(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, &core.CommunicationError{Endpoint: c.url, Err: err}
	}
	// NODATA (an empty non-terminal) arrives as NoError with no answers:
	// the name exists but carries no records.
	c.ttl.note(domain, rrs)
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

// probe is the name-resolution rule's probe: one ANY query. Every domain
// can hold children, so a domain is a context unless its TXT record names
// a junction.
func (c *Context) probe(ctx context.Context, n core.Name) (core.Bound, any, error) {
	ok, rrs, err := c.exists(ctx, n)
	if err != nil || !ok {
		return core.BoundNothing, nil, err
	}
	if url, isBoundary := boundaryURL(rrs); isBoundary {
		return core.BoundObject, core.NewContextReference(url), nil
	}
	return core.BoundContext, nil, nil
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

// Do implements core.Doer. Reads query the server, and a read that
// misses gets the name-resolution rule's answer. DNS updates are
// administrative (exactly the trade-off the paper describes in §1), so a
// write is unsupported here, unless its name crosses a federation anchor:
// then it continues in the anchored naming system, and writes through the
// DNS *root* of the paper's hierarchy land on HDNS or the leaf services.
func (c *Context) Do(ctx context.Context, op core.Op) (res core.Result, err error) {
	full, err := c.full(ctx, op.Name)
	if err != nil {
		return res, core.OpErr(op, err)
	}
	switch op.Kind {
	case core.OpLookup, core.OpLookupLink:
		res.Value, err = c.lookup(ctx, full)
	case core.OpGetAttributes:
		res.Attrs, err = c.attributes(ctx, full, op.AttrIDs)
	case core.OpList, core.OpListBindings:
		var bs []core.Binding
		if bs, err = c.list(ctx, full); err == nil {
			res = core.ListResult(op.Kind, bs)
		}
	case core.OpSearch:
		var s *core.Search
		if s, err = core.NewSearch(ctx, op); err == nil {
			if err = c.search(ctx, s, full); err == nil {
				res.Found, err = s.Done()
				return res, err // a stopped search's partial results, as they are
			}
		}
	case core.OpBind, core.OpRebind, core.OpUnbind, core.OpRename, core.OpCreateSubcontext,
		core.OpDestroySubcontext, core.OpModifyAttributes:
		if err = core.Resolve(ctx, op.Kind, c.base, full, nil, c.probe); err == nil || err == core.ErrNotFound {
			err = core.ErrNotSupported
		}
	default:
		err = core.ErrNotSupported
	}
	return res, core.OpErr(op, err)
}

// lookup resolves a domain to a subcontext; a TXT record holding a
// provider URL resolves to a context Reference (federation).
func (c *Context) lookup(ctx context.Context, full core.Name) (any, error) {
	if full.Equal(c.base) {
		return c.child(c.base), nil
	}
	bound, obj, err := c.probe(ctx, full)
	switch {
	case err != nil:
		return nil, err
	case bound == core.BoundNothing:
		return nil, core.Resolve(ctx, core.OpLookup, c.base, full, core.ErrNotFound, c.probe)
	case bound == core.BoundObject:
		return obj, nil
	}
	return c.child(full), nil
}

// enter is the name-resolution rule's answer for a List or Search at
// full, which read a whole zone and so cannot miss a name themselves.
// One query answers a domain that exists and is no junction; any other
// name walks its prefixes.
func (c *Context) enter(ctx context.Context, kind core.OpKind, full core.Name) error {
	if full.Equal(c.base) {
		return nil
	}
	bound, _, err := c.probe(ctx, full)
	if err != nil || bound == core.BoundContext {
		return err
	}
	return core.Resolve(ctx, kind, c.base, full, core.ErrNotFound, c.probe)
}

// AttrSOASerial is the attribute ID under which a zone apex exposes its
// SOA serial alone. Asking for exactly this attribute takes a dedicated
// fast path: one SOA query instead of the ANY query + full record
// mapping, so a client can change-check a zone cheaply.
const AttrSOASerial = "soa-serial"

// soaSerial fetches the domain's SOA serial with a single TypeSOA query.
// It returns (0, false, nil) when the domain has no SOA record.
func (c *Context) soaSerial(ctx context.Context, n core.Name) (uint32, bool, error) {
	domain := domainFor(n)
	rrs, err := c.resolver.Query(ctx, domain, dnssrv.TypeSOA)
	if dnssrv.IsNXDomain(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, &core.CommunicationError{Endpoint: c.url, Err: err}
	}
	c.ttl.note(domain, rrs)
	for _, rr := range rrs {
		if rr.Type == dnssrv.TypeSOA && rr.SOA != nil {
			return rr.SOA.Serial, true, nil
		}
	}
	return 0, false, nil
}

// attributes are the domain's resource records, keyed by record type.
func (c *Context) attributes(ctx context.Context, full core.Name, attrIDs []string) (*core.Attributes, error) {
	if len(attrIDs) == 1 && attrIDs[0] == AttrSOASerial {
		// Serial-only probe: answer from one SOA query, skipping the ANY
		// query and full record mapping below.
		serial, ok, err := c.soaSerial(ctx, full)
		if err != nil {
			return nil, err
		}
		attrs := &core.Attributes{}
		if ok {
			attrs.Add(AttrSOASerial, fmt.Sprintf("%d", serial))
		}
		return attrs, nil
	}
	ok, rrs, err := c.exists(ctx, full)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, core.Resolve(ctx, core.OpGetAttributes, c.base, full, core.ErrNotFound, c.probe)
	}
	return recordAttrs(rrs).Select(attrIDs...), nil
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

// list enumerates the child domains of full via zone transfer.
func (c *Context) list(ctx context.Context, full core.Name) ([]core.Binding, error) {
	if err := c.enter(ctx, core.OpList, full); err != nil {
		return nil, err
	}
	kids, err := c.transferredChildren(ctx, full)
	if err != nil {
		return nil, err
	}
	out := make([]core.Binding, 0, len(kids))
	for label := range kids {
		out = append(out, core.Binding{
			Name:   label,
			Class:  core.ContextReferenceClass,
			Object: c.child(full.Append(label)),
		})
	}
	return out, nil
}

// search offers each domain of the transferred zone subtree under full.
func (c *Context) search(ctx context.Context, s *core.Search, full core.Name) error {
	if err := c.enter(ctx, core.OpSearch, full); err != nil {
		return err
	}
	domain := domainFor(full)
	rrs, err := c.resolver.TransferZone(ctx, domain)
	if err != nil {
		return &core.CommunicationError{Endpoint: c.url, Err: err}
	}
	byName := map[string][]dnssrv.RR{}
	for _, rr := range rrs {
		byName[rr.Name] = append(byName[rr.Name], rr)
	}
	for dn, recs := range byName {
		if s.Stopped() {
			break
		}
		if dn != domain && !strings.HasSuffix(dn, "."+domain) && domain != "." {
			continue
		}
		rel, perr := core.ParseName(relPath(dn, domain))
		if perr != nil {
			continue
		}
		if attrs := recordAttrs(recs); s.Match(rel.Size(), attrs) {
			s.Add(rel, attrs, nil, true)
		}
	}
	return nil
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

// NameInNamespace implements core.Context.
func (c *Context) NameInNamespace() (string, error) { return c.base.String(), nil }

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// Close implements core.Context: nothing to release, the pooled resolver
// drops its own socket when idle.
func (c *Context) Close() error { return nil }

// Dead implements core.Liveness: the server this root resolves against
// is no longer admitting traffic, so a fresh open may choose another.
func (c *Context) Dead() bool { return !breaker.For(c.resolver.Server).Ready() }

// Reference implements core.Referenceable.
func (c *Context) Reference() (*core.Reference, error) {
	url := c.url
	if !c.base.IsEmpty() {
		url += "/" + c.base.String()
	}
	return core.NewContextReference(url), nil
}

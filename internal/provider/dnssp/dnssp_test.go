package dnssp

import (
	"context"
	"errors"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"gondi/internal/breaker"
	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/dnssrv"
	"gondi/internal/obs"
)

// newWorld builds a DNS server with the paper's example hierarchy:
// global -> emory -> mathcs, with a federation TXT anchor at dcl.
func newWorld(t *testing.T) *dnssrv.Server {
	t.Helper()
	s, err := dnssrv.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	z := dnssrv.NewZone("global")
	z.Add(dnssrv.RR{Name: "emory.global", Type: dnssrv.TypeA, A: netip.MustParseAddr("170.140.0.1")})
	z.Add(dnssrv.RR{Name: "emory.global", Type: dnssrv.TypeTXT, Txt: []string{"Emory University"}})
	z.Add(dnssrv.RR{Name: "mathcs.emory.global", Type: dnssrv.TypeTXT, Txt: []string{"Math & CS"}})
	z.Add(dnssrv.RR{Name: "gatech.global", Type: dnssrv.TypeTXT, Txt: []string{"Georgia Tech"}})
	// Federation anchor: the dcl department delegates to an HDNS node.
	z.Add(dnssrv.RR{Name: "dcl.mathcs.emory.global", Type: dnssrv.TypeTXT, Txt: []string{"hdns://127.0.0.1:7001"}})
	s.AddZone(z)
	return s
}

func open(t *testing.T, s *dnssrv.Server, path string) (core.Context, core.Name) {
	ctx := context.Background()
	t.Helper()
	Register()
	nc, rest, err := core.OpenURL(ctx, "dns://"+s.Addr()+"/"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, rest
}

func TestLookupContexts(t *testing.T) {
	s := newWorld(t)
	ctx := context.Background()
	nc, rest := open(t, s, "global")
	obj, err := nc.Lookup(ctx, rest.String())
	if err != nil {
		t.Fatal(err)
	}
	root, ok := obj.(core.Context)
	if !ok {
		t.Fatalf("root = %T", obj)
	}
	// Subdomain resolves to a context.
	obj, err = root.Lookup(ctx, "emory")
	if err != nil {
		t.Fatal(err)
	}
	emory, ok := obj.(core.Context)
	if !ok {
		t.Fatalf("emory = %T", obj)
	}
	if _, err := emory.Lookup(ctx, "mathcs"); err != nil {
		t.Fatal(err)
	}
	// Missing name.
	if _, err := root.Lookup(ctx, "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("ghost: %v", err)
	}
}

func TestGetAttributes(t *testing.T) {
	s := newWorld(t)
	ctx := context.Background()
	nc, _ := open(t, s, "global")
	attrs, err := obs.Uninstrument(nc).(*Context).GetAttributes(ctx, "global/emory")
	if err != nil {
		t.Fatal(err)
	}
	if attrs.GetFirst("A") != "170.140.0.1" {
		t.Errorf("A = %q", attrs.GetFirst("A"))
	}
	if attrs.GetFirst("TXT") != "Emory University" {
		t.Errorf("TXT = %q", attrs.GetFirst("TXT"))
	}
	// Restricted.
	attrs, _ = obs.Uninstrument(nc).(*Context).GetAttributes(ctx, "global/emory", "TXT")
	if attrs.Size() != 1 {
		t.Errorf("restricted = %v", attrs)
	}
}

// The zone apex must expose its SOA serial as the "soa-serial" attribute,
// and asking for exactly that attribute must answer from one SOA query
// (the delta-pull change check). The serial is the zone's live change
// counter, so it must move when the zone does.
func TestSOASerialAttribute(t *testing.T) {
	s := newWorld(t)
	ctx := context.Background()
	nc, _ := open(t, s, "global")
	dc := obs.Uninstrument(nc).(*Context)

	attrs, err := dc.GetAttributes(ctx, "global", AttrSOASerial)
	if err != nil {
		t.Fatal(err)
	}
	serial0 := attrs.GetFirst(AttrSOASerial)
	if serial0 == "" {
		t.Fatalf("no %s attribute at the apex: %v", AttrSOASerial, attrs)
	}
	// The full attribute map carries it too (alongside the combined SOA).
	all, err := dc.GetAttributes(ctx, "global")
	if err != nil {
		t.Fatal(err)
	}
	if all.GetFirst(AttrSOASerial) != serial0 {
		t.Fatalf("full map serial %q, fast path %q", all.GetFirst(AttrSOASerial), serial0)
	}
	// A zone change must move the serial.
	z, ok := s.Zone("global")
	if !ok {
		t.Fatal("zone missing")
	}
	z.Add(dnssrv.RR{Name: "new.global", Type: dnssrv.TypeTXT, Txt: []string{"added"}})
	attrs, err = dc.GetAttributes(ctx, "global", AttrSOASerial)
	if err != nil {
		t.Fatal(err)
	}
	if attrs.GetFirst(AttrSOASerial) == serial0 {
		t.Fatalf("serial did not move after zone change (still %q)", serial0)
	}
}

func TestListViaZoneTransfer(t *testing.T) {
	s := newWorld(t)
	ctx := context.Background()
	nc, _ := open(t, s, "global")
	pairs, err := nc.List(ctx, "global")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range pairs {
		names[p.Name] = true
		if p.Class != core.ContextReferenceClass {
			t.Errorf("class = %q", p.Class)
		}
	}
	if !names["emory"] || !names["gatech"] {
		t.Errorf("children = %v", names)
	}
	pairs, err = nc.List(ctx, "global/emory")
	if err != nil || len(pairs) != 1 || pairs[0].Name != "mathcs" {
		t.Fatalf("emory children = %+v, %v", pairs, err)
	}
}

func TestSearch(t *testing.T) {
	s := newWorld(t)
	ctx := context.Background()
	nc, _ := open(t, s, "global")
	res, err := obs.Uninstrument(nc).(*Context).Search(ctx, "global", "(TXT=*university*)", &core.SearchControls{Scope: core.ScopeSubtree})
	if err != nil || len(res) != 1 || res[0].Name != "emory" {
		t.Fatalf("search = %+v, %v", res, err)
	}
	// One-level scope.
	res, err = obs.Uninstrument(nc).(*Context).Search(ctx, "global", "(TXT=*)", &core.SearchControls{Scope: core.ScopeOneLevel})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Name != "emory" && r.Name != "gatech" {
			t.Errorf("unexpected one-level hit %q", r.Name)
		}
	}
}

// The paper's anchoring scenario: resolving through a TXT record that
// holds a provider URL raises a federation continuation.
func TestFederationAnchor(t *testing.T) {
	s := newWorld(t)
	ctx := context.Background()
	nc, _ := open(t, s, "global")
	// Core must know the hdns scheme for the TXT to count as a boundary.
	core.RegisterProvider("hdns", core.ProviderFunc(func(context.Context, string, map[string]any) (core.Context, core.Name, error) {
		return nil, core.Name{}, errors.New("unreachable in this test")
	}))
	// Looking up the anchor itself yields a context reference.
	obj, err := nc.Lookup(ctx, "global/emory/mathcs/dcl")
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := obj.(*core.Reference)
	if !ok {
		t.Fatalf("anchor = %T", obj)
	}
	if url, _ := ref.Get(core.AddrURL); url != "hdns://127.0.0.1:7001" {
		t.Errorf("url = %q", url)
	}
	// Resolving THROUGH the anchor raises a continuation.
	_, err = nc.Lookup(ctx, "global/emory/mathcs/dcl/mokey")
	var cpe *core.CannotProceedError
	if !errors.As(err, &cpe) {
		t.Fatalf("want continuation, got %v", err)
	}
	if cpe.RemainingName.String() != "mokey" {
		t.Errorf("remaining = %q", cpe.RemainingName.String())
	}
	if ref, ok := cpe.Resolved.(*core.Reference); !ok {
		t.Errorf("resolved = %v, want the anchor's context reference", cpe.Resolved)
	} else if url, _ := ref.Get(core.AddrURL); url != "hdns://127.0.0.1:7001" {
		t.Errorf("resolved url = %q", url)
	}
}

func TestWritesUnsupported(t *testing.T) {
	s := newWorld(t)
	ctx := context.Background()
	nc, _ := open(t, s, "global")
	c := obs.Uninstrument(nc).(*Context)
	if err := c.Bind(ctx, "x", 1); !errors.Is(err, core.ErrNotSupported) {
		t.Errorf("bind: %v", err)
	}
	if err := c.Rebind(ctx, "x", 1); !errors.Is(err, core.ErrNotSupported) {
		t.Errorf("rebind: %v", err)
	}
	if err := c.Unbind(ctx, "x"); !errors.Is(err, core.ErrNotSupported) {
		t.Errorf("unbind: %v", err)
	}
	if _, err := c.CreateSubcontext(ctx, "x"); !errors.Is(err, core.ErrNotSupported) {
		t.Errorf("createSubcontext: %v", err)
	}
	if err := c.ModifyAttributes(ctx, "x", nil); !errors.Is(err, core.ErrNotSupported) {
		t.Errorf("modifyAttributes: %v", err)
	}
}

func TestDomainMapping(t *testing.T) {
	if got := domainFor(core.MustParseName("global/emory/mathcs")); got != "mathcs.emory.global." {
		t.Errorf("domainFor = %q", got)
	}
	if got := domainFor(core.Name{}); got != "." {
		t.Errorf("empty = %q", got)
	}
	if got := relPath("mathcs.emory.global.", "global."); got != "emory/mathcs" {
		t.Errorf("relPath = %q", got)
	}
	if got := relPath("global.", "global."); got != "" {
		t.Errorf("relPath self = %q", got)
	}
}

// resolverLoops counts live dnssrv.Resolver read loops. A loop owns
// exactly one UDP socket (it closes it on exit), so this is also the
// number of resolver sockets open.
func resolverLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "dnssrv.(*Resolver).readLoop")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestOpensShareOneResolver: every InitialContext and every cache opens
// its own dns:// roots, and each open must not cost a socket and a reader
// goroutine.
func TestOpensShareOneResolver(t *testing.T) {
	s := newWorld(t)
	Register()
	ctx := context.Background()
	before := resolverLoops()
	for i := 0; i < 200; i++ {
		nc, rest, err := core.OpenURL(ctx, "dns://"+s.Addr()+"/global/emory", nil)
		if err != nil {
			t.Fatal(err)
		}
		attrs, err := nc.(core.DirContext).GetAttributes(ctx, rest.String())
		if err != nil {
			t.Fatal(err)
		}
		if attrs.GetFirst("TXT") != "Emory University" {
			t.Fatalf("open %d: attrs = %v", i, attrs)
		}
		nc.Close()
	}
	if n := resolverLoops() - before; n > 1 {
		t.Fatalf("%d resolver read loops (and sockets) alive after 200 sequential opens, want at most 1", n)
	}
}

func TestPoolIDsPartitionResolvers(t *testing.T) {
	a := resolverFor("127.0.0.1:53", map[string]any{core.EnvPoolID: "a"})
	if resolverFor("127.0.0.1:53", map[string]any{core.EnvPoolID: "a"}) != a {
		t.Error("same server and pool ID: different resolvers")
	}
	for name, env := range map[string]map[string]any{
		"other id":  {core.EnvPoolID: "b"},
		"int id":    {core.EnvPoolID: 7},
		"no id":     nil,
		"no id set": {},
	} {
		if resolverFor("127.0.0.1:53", env) == a {
			t.Errorf("%s: shares pool a's resolver", name)
		}
	}
	if resolverFor("127.0.0.1:54", map[string]any{core.EnvPoolID: "a"}) == a {
		t.Error("other server: shares the resolver")
	}
	if resolverFor("127.0.0.1:53", map[string]any{core.EnvPoolID: 7}) != resolverFor("127.0.0.1:53", map[string]any{core.EnvPoolID: 7}) {
		t.Error("int pool ID: not pooled")
	}
}

// An InitialContext holds one dns:// root per authority, and the root
// chooses its server once. A held "dns://a,b" root answers from a until
// a's breaker opens, then is opened again on b and stays there.
func TestHeldRootFailsOverWhenBreakerOpens(t *testing.T) {
	Register()
	ctx := context.Background()
	servers := make([]*dnssrv.Server, 2)
	for i, txt := range []string{"from-a", "from-b"} {
		s, err := dnssrv.NewServer("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			s.Close()
			breaker.For(s.Addr()).Reset() // a later test may get the port
		})
		z := dnssrv.NewZone("global")
		z.Add(dnssrv.RR{Name: "svc.global", Type: dnssrv.TypeTXT, Txt: []string{txt}})
		s.AddZone(z)
		servers[i] = s
	}
	a := servers[0].Addr()
	ic, err := core.Open(ctx, core.WithPoolID(t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	name := "dns://" + a + "," + servers[1].Addr() + "/global/svc"
	answer := func() string {
		t.Helper()
		attrs, err := ic.GetAttributes(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		return attrs.GetFirst("TXT")
	}
	for i := 0; i < 3; i++ {
		if got := answer(); got != "from-a" {
			t.Fatalf("before the trip: answer %d from %q, want from-a", i, got)
		}
	}
	br := breaker.For(a)
	for i := 0; i < breaker.DefaultThreshold; i++ {
		br.Record(true)
	}
	if br.Ready() {
		t.Fatal("breaker did not open")
	}
	for i := 0; i < 3; i++ {
		if got := answer(); got != "from-b" {
			t.Fatalf("after a's breaker opened: answer %d from %q, want from-b", i, got)
		}
	}
}

// The same failover through a cached context: the cache wraps the
// InitialContext's held root, so when the InitialContext opens it again
// on b, a name not yet cached answers from b, and what a answered is
// dropped.
func TestCachedHeldRootFailsOverWhenBreakerOpens(t *testing.T) {
	Register()
	cache.Register()
	ctx := context.Background()
	servers := make([]*dnssrv.Server, 2)
	for i, txt := range []string{"from-a", "from-b"} {
		s, err := dnssrv.NewServer("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			s.Close()
			breaker.For(s.Addr()).Reset() // a later test may get the port
		})
		z := dnssrv.NewZone("global")
		for _, name := range []string{"svc", "new0", "new1", "new2"} {
			z.Add(dnssrv.RR{Name: name + ".global", Type: dnssrv.TypeTXT, Txt: []string{txt}})
		}
		s.AddZone(z)
		servers[i] = s
	}
	a := servers[0].Addr()
	ic, err := core.Open(ctx, core.WithCache(core.CacheConfig{}), core.WithPoolID(t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	prefix := "dns://" + a + "," + servers[1].Addr() + "/global/"
	answer := func(name string) string {
		t.Helper()
		attrs, err := ic.GetAttributes(ctx, prefix+name)
		if err != nil {
			t.Fatal(err)
		}
		return attrs.GetFirst("TXT")
	}
	for i := 0; i < 3; i++ {
		if got := answer("svc"); got != "from-a" {
			t.Fatalf("before the trip: answer %d from %q, want from-a", i, got)
		}
	}
	br := breaker.For(a)
	for i := 0; i < breaker.DefaultThreshold; i++ {
		br.Record(true)
	}
	if br.Ready() {
		t.Fatal("breaker did not open")
	}
	for _, name := range []string{"new0", "new1", "new2", "svc"} {
		if got := answer(name); got != "from-b" {
			t.Fatalf("after a's breaker opened: %s answered from %q, want from-b", name, got)
		}
	}
}

var getAttrsSink *core.Attributes

// BenchmarkDNSSPOpenGetAttributes is a fresh dnssp root's cost: open the
// provider for a URL, one GetAttributes, close.
func BenchmarkDNSSPOpenGetAttributes(b *testing.B) {
	s, err := dnssrv.NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	z := dnssrv.NewZone("global")
	z.Add(dnssrv.RR{Name: "emory.global", Type: dnssrv.TypeTXT, Txt: []string{"Emory University"}})
	s.AddZone(z)
	Register()
	ctx := context.Background()
	url := "dns://" + s.Addr() + "/global/emory"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc, rest, err := core.OpenURL(ctx, url, nil)
		if err != nil {
			b.Fatal(err)
		}
		if getAttrsSink, err = nc.(core.DirContext).GetAttributes(ctx, rest.String()); err != nil {
			b.Fatal(err)
		}
		nc.Close()
	}
}

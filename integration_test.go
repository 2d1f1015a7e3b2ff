package gondi

// Cross-module integration tests: every naming substrate running live,
// federated into one composite name space, exercised through the unified
// client API — the paper's end-to-end claim.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/costmodel"
	"gondi/internal/dnssrv"
	"gondi/internal/fault"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/ldapsrv"
	"gondi/internal/provider/dnssp"
	"gondi/internal/provider/fssp"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/ldapsp"
	"gondi/internal/provider/memsp"
)

var registerOnce sync.Once

func registerAll() {
	registerOnce.Do(func() {
		jinisp.Register()
		hdnssp.Register()
		dnssp.Register()
		ldapsp.Register()
		fssp.Register()
		memsp.Register()
		cache.Register()
	})
}

// world is the paper's §6 deployment: DNS root, replicated HDNS middle,
// LDAP + Jini leaves.
type world struct {
	dns    *dnssrv.Server
	ldap   *ldapsrv.Server
	lus    *jini.LUS
	fabric *jgroups.Fabric
	nodes  []*hdns.Node
	ic     *core.InitialContext
}

func buildWorld(t *testing.T) *world {
	ctx := context.Background()
	t.Helper()
	registerAll()
	w := &world{fabric: jgroups.NewFabric()}

	var err error
	w.ldap, err = ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=dcl"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.ldap.Close() })

	w.lus, err = jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.lus.Close() })

	for i := 0; i < 2; i++ {
		stack := jgroups.DefaultConfig()
		stack.HeartbeatInterval = 50 * time.Millisecond
		n, err := hdns.NewNode(hdns.NodeConfig{
			Group:      "it-campus",
			Transport:  w.fabric.Endpoint(jgroups.Address(fmt.Sprintf("it-n%d", i))),
			Stack:      stack,
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		w.nodes = append(w.nodes, n)
	}

	w.dns, err = dnssrv.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.dns.Close() })
	zone := dnssrv.NewZone("global")
	zone.Add(dnssrv.RR{Name: "mathcs.emory.global", Type: dnssrv.TypeTXT,
		Txt: []string{"hdns://" + w.nodes[0].Addr()}})
	w.dns.AddZone(zone)

	if w.ic, err = core.Open(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.ic.Close() })

	// Link the leaves into HDNS (the §6 federation-building step).
	hdnsURL := "hdns://" + w.nodes[0].Addr()
	if err := w.ic.Bind(ctx, hdnsURL+"/dcl", core.NewContextReference("ldap://"+w.ldap.Addr()+"/dc=dcl")); err != nil {
		t.Fatal(err)
	}
	if err := w.ic.Bind(ctx, hdnsURL+"/devices", core.NewContextReference("jini://"+w.lus.Addr())); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *world) root() string {
	return "dns://" + w.dns.Addr() + "/global/emory/mathcs"
}

func TestFederationPaperScenario(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	ic := w.ic

	// Write through the full DNS -> HDNS -> LDAP chain.
	if err := ic.BindAttrs(ctx, w.root()+"/dcl/mokey", "mokey:22",
		core.NewAttributes("type", "workstation")); err != nil {
		t.Fatal(err)
	}
	// Read back through the same chain.
	obj, err := ic.Lookup(ctx, w.root()+"/dcl/mokey")
	if err != nil || obj != "mokey:22" {
		t.Fatalf("federated lookup = %v, %v", obj, err)
	}
	// Attributes across the chain.
	attrs, err := ic.GetAttributes(ctx, w.root()+"/dcl/mokey")
	if err != nil || attrs.GetFirst("type") != "workstation" {
		t.Fatalf("federated attrs = %v, %v", attrs, err)
	}
	// Search pushed to the LDAP leaf across the chain.
	res, err := ic.Search(ctx, w.root()+"/dcl", "(type=workstation)",
		&core.SearchControls{Scope: core.ScopeSubtree})
	if err != nil || len(res) != 1 || res[0].Name != "mokey" {
		t.Fatalf("federated search = %+v, %v", res, err)
	}
	// The Jini leaf through the same root.
	if err := ic.Bind(ctx, w.root()+"/devices/scanner", "scan://10.0.0.9"); err != nil {
		t.Fatal(err)
	}
	obj, err = ic.Lookup(ctx, w.root()+"/devices/scanner")
	if err != nil || obj != "scan://10.0.0.9" {
		t.Fatalf("jini leaf = %v, %v", obj, err)
	}
	// Listing through the chain lands on the LDAP leaf.
	pairs, err := ic.List(ctx, w.root()+"/dcl")
	if err != nil || len(pairs) != 1 || pairs[0].Name != "mokey" {
		t.Fatalf("federated list = %+v, %v", pairs, err)
	}
	// Unbind across the chain.
	if err := ic.Unbind(ctx, w.root()+"/dcl/mokey"); err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Lookup(ctx, w.root()+"/dcl/mokey"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("after unbind: %v", err)
	}
}

func TestFederationReadAnyReplica(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	ic := w.ic
	if err := ic.Bind(ctx, "hdns://"+w.nodes[0].Addr()+"/shared", "value"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		obj, err := ic.Lookup(ctx, "hdns://"+w.nodes[1].Addr()+"/shared")
		if err == nil && obj == "value" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 2 never converged: %v, %v", obj, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Objects of registered Go types survive the trip through any provider.
type deployment struct {
	Host  string
	Port  int
	Tags  []string
	Extra map[string]string
}

func TestTypedObjectsThroughEveryProvider(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	core.RegisterType(deployment{})
	want := deployment{Host: "h1", Port: 8443, Tags: []string{"prod", "edge"},
		Extra: map[string]string{"zone": "b"}}

	memsp.ResetSpaces()
	dir := t.TempDir()
	targets := []string{
		"hdns://" + w.nodes[0].Addr() + "/typed",
		"jini://" + w.lus.Addr() + "/typed",
		"ldap://" + w.ldap.Addr() + "/dc=dcl/typed",
		"mem://it/typed",
		"file://" + dir + "/typed",
	}
	for _, url := range targets {
		if err := w.ic.Bind(ctx, url, want); err != nil {
			t.Fatalf("%s: bind: %v", url, err)
		}
		obj, err := w.ic.Lookup(ctx, url)
		if err != nil {
			t.Fatalf("%s: lookup: %v", url, err)
		}
		got, ok := obj.(deployment)
		if !ok || got.Host != want.Host || got.Port != want.Port ||
			len(got.Tags) != 2 || got.Extra["zone"] != "b" {
			t.Fatalf("%s: got %#v", url, obj)
		}
	}
}

// A chain of links: mem -> file -> hdns resolves transitively.
func TestMultiHopHeterogeneousChain(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	memsp.ResetSpaces()
	dir := t.TempDir()
	ic := w.ic

	if err := ic.Bind(ctx, "hdns://"+w.nodes[0].Addr()+"/leafval", "gold"); err != nil {
		t.Fatal(err)
	}
	if err := ic.Bind(ctx, "file://"+dir+"/tohdns",
		core.NewContextReference("hdns://"+w.nodes[0].Addr())); err != nil {
		t.Fatal(err)
	}
	if err := ic.Bind(ctx, "mem://chain/tofile",
		core.NewContextReference("file://"+dir)); err != nil {
		t.Fatal(err)
	}
	obj, err := ic.Lookup(ctx, "mem://chain/tofile/tohdns/leafval")
	if err != nil || obj != "gold" {
		t.Fatalf("3-hop chain = %v, %v", obj, err)
	}
}

// Events flow out of the federated space.
func TestFederatedWatch(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	ic := w.ic
	got := make(chan core.NamingEvent, 8)
	cancel, err := ic.Watch(ctx, "hdns://"+w.nodes[0].Addr()+"/", core.ScopeSubtree,
		func(e core.NamingEvent) { got <- e })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := ic.Bind(ctx, "hdns://"+w.nodes[0].Addr()+"/announced", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		if e.Type != core.EventObjectAdded || e.Name != "announced" {
			t.Fatalf("event = %+v", e)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no event")
	}
}

// The federation survives an HDNS replica crash: the DNS anchor can point
// clients at the surviving node.
func TestFederationSurvivesReplicaCrash(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	ic := w.ic
	if err := ic.BindAttrs(ctx, w.root()+"/dcl/box", "up", nil); err != nil {
		t.Fatal(err)
	}
	// Crash the anchored node; repoint the anchor at the survivor (the
	// administrative action DNS anchoring is designed for).
	w.nodes[0].Close()
	zone, _ := w.dns.Zone("global")
	zone.Replace("mathcs.emory.global", dnssrv.TypeTXT,
		dnssrv.RR{Txt: []string{"hdns://" + w.nodes[1].Addr()}})

	deadline := time.Now().Add(5 * time.Second)
	for {
		obj, err := ic.Lookup(ctx, w.root()+"/dcl/box")
		if err == nil && obj == "up" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lookup after crash: %v, %v", obj, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// A multi-endpoint authority heals around a dead replica without any
// administrative action: node 0 sits behind a fault.Proxy, and once the
// proxy is cut "hdns://proxy,node1" keeps resolving — directly and as a
// DNS-anchored federation hop — through the provider's breaker-ranked
// failover.Open, while "hdns://proxy" alone fails typed. A cached context
// heals the same way: the cache wraps the InitialContext's held roots.
func TestFederationFailsOverToReplica(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"uncached", nil},
		{"cached", []core.Option{core.WithCache(cache.Config{})}},
	} {
		t.Run(tc.name, func(t *testing.T) { federationFailsOverToReplica(t, tc.opts) })
	}
}

func federationFailsOverToReplica(t *testing.T, opts []core.Option) {
	ctx := context.Background()
	w := buildWorld(t)
	proxy, err := fault.NewProxy(w.nodes[0].Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		proxy.Close()
		// Breakers are process-wide and keyed by address; a later run
		// may be handed the same ephemeral port.
		breaker.For(proxy.Addr()).Reset()
	})
	healing := "hdns://" + proxy.Addr() + "," + w.nodes[1].Addr()
	solo := "hdns://" + proxy.Addr()
	zone, _ := w.dns.Zone("global")
	zone.Add(dnssrv.RR{Name: "healing.emory.global", Type: dnssrv.TypeTXT, Txt: []string{healing}})
	zone.Add(dnssrv.RR{Name: "solo.emory.global", Type: dnssrv.TypeTXT, Txt: []string{solo}})
	anchor := "dns://" + w.dns.Addr() + "/global/emory"
	healingURLs := []string{healing + "/printer", anchor + "/healing/printer"}
	soloURLs := []string{solo + "/printer", anchor + "/solo/printer"}

	ic, err := core.Open(ctx, append(opts, core.WithPoolID(t.Name()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()

	// The replica must hold the binding before the primary can crash:
	// watch it, bind through the proxy, wait for the replicated event.
	replicated := make(chan core.NamingEvent, 8)
	cancel, err := ic.Watch(ctx, "hdns://"+w.nodes[1].Addr()+"/", core.ScopeSubtree,
		func(e core.NamingEvent) { replicated <- e })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := ic.Bind(ctx, healing+"/printer", "ready"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-replicated:
	case <-time.After(5 * time.Second):
		t.Fatal("bind never reached the replica")
	}
	for _, u := range append(healingURLs, soloURLs...) {
		if obj, err := ic.Lookup(ctx, u); err != nil || obj != "ready" {
			t.Fatalf("before the cut: %s = %v, %v", u, obj, err)
		}
	}

	proxy.Cut()
	// The pooled connection through the proxy dies asynchronously; the
	// cut has been observed once the single-endpoint URL, which shares
	// that pool entry, fails typed. Each attempt is a wire round trip,
	// so the loop needs no pause of its own.
	var unavailable *core.ServiceUnavailableError
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := ic.Lookup(ctx, soloURLs[0])
		if errors.As(err, &unavailable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("single endpoint behind a cut proxy: want ServiceUnavailableError, got %v", err)
		}
	}

	for i := 0; i < 20; i++ {
		for _, u := range healingURLs {
			if obj, err := ic.Lookup(ctx, u); err != nil || obj != "ready" {
				t.Fatalf("lookup %d after the cut: %s = %v, %v", i, u, obj, err)
			}
		}
		for _, u := range soloURLs {
			if _, err := ic.Lookup(ctx, u); !errors.As(err, &unavailable) {
				t.Fatalf("lookup %d after the cut: %s: want ServiceUnavailableError, got %v", i, u, err)
			}
		}
	}
}

// Concurrent mixed traffic over the whole federation.
func TestFederationConcurrentClients(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	hdnsURL := "hdns://" + w.nodes[0].Addr()
	if _, err := w.ic.CreateSubcontext(ctx, hdnsURL+"/load"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ic, err := core.Open(ctx, core.WithEnv(core.EnvPoolID, g))
			if err != nil {
				t.Error(err)
				return
			}
			defer ic.Close()
			for i := 0; i < 15; i++ {
				name := fmt.Sprintf("%s/load/g%d-%d", hdnsURL, g, i)
				if err := ic.Bind(ctx, name, g*100+i); err != nil {
					t.Errorf("bind %s: %v", name, err)
					return
				}
				obj, err := ic.Lookup(ctx, name)
				if err != nil || obj != g*100+i {
					t.Errorf("lookup %s = %v, %v", name, obj, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	pairs, err := w.ic.List(ctx, hdnsURL+"/load")
	if err != nil || len(pairs) != 90 {
		t.Fatalf("final list = %d, %v", len(pairs), err)
	}
}

// The caller's deadline travels across federation hops. The DNS and HDNS
// hops resolve quickly; the LDAP leaf's read station is deliberately
// slower than the deadline, so the final hop exceeds it — and the error
// that comes back up through two continuations still unwraps to
// context.DeadlineExceeded inside the core typed error.
func TestFederatedDeadlinePropagation(t *testing.T) {
	registerAll()
	bg := context.Background()
	slow := &costmodel.Costs{
		Read:  costmodel.NewStation(1, 2*time.Second),
		Write: costmodel.NewStation(1, time.Millisecond),
	}
	ldap, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=slow", Costs: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer ldap.Close()

	fabric := jgroups.NewFabric()
	node, err := hdns.NewNode(hdns.NodeConfig{
		Group: "ddl-campus", Transport: fabric.Endpoint("ddl-n0"), ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	dns, err := dnssrv.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dns.Close()
	zone := dnssrv.NewZone("global")
	zone.Add(dnssrv.RR{Name: "mathcs.emory.global", Type: dnssrv.TypeTXT,
		Txt: []string{"hdns://" + node.Addr()}})
	dns.AddZone(zone)

	ic, err := core.Open(bg)
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	// Setup writes avoid the slow read station; no deadline needed.
	if err := ic.Bind(bg, "hdns://"+node.Addr()+"/dcl",
		core.NewContextReference("ldap://"+ldap.Addr()+"/dc=slow")); err != nil {
		t.Fatal(err)
	}
	if err := ic.Bind(bg, "ldap://"+ldap.Addr()+"/dc=slow/mokey", "v"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(bg, 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ic.Lookup(ctx, "dns://"+dns.Addr()+"/global/emory/mathcs/dcl/mokey")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded through 2 federation hops, got %v", err)
	}
	var ne *core.NamingError
	if !errors.As(err, &ne) {
		t.Fatalf("deadline error not wrapped in core.NamingError: %T %v", err, err)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("caller waited %v past a 500ms deadline", elapsed)
	}
}

// A fabric partition must not wedge callers. In virtual-synchrony mode a
// non-coordinator's write is forwarded to the sequencer; partitioned away
// from it, the HDNS node's write blocks server-side — but the caller's
// deadline rides the RPC and cuts the client loose long before the
// server's own write timeout.
func TestPartitionedWriteHonorsDeadline(t *testing.T) {
	registerAll()
	bg := context.Background()
	fabric := jgroups.NewFabric()
	var nodes []*hdns.Node
	for i := 0; i < 2; i++ {
		n, err := hdns.NewNode(hdns.NodeConfig{
			Group:      "part-campus",
			Transport:  fabric.Endpoint(jgroups.Address(fmt.Sprintf("part-n%d", i))),
			Stack:      jgroups.VirtualSynchronyConfig(),
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	ic, err := core.Open(bg)
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	// Sanity: the replicated write path works before the partition.
	if err := ic.Bind(bg, "hdns://"+nodes[1].Addr()+"/pre", 1); err != nil {
		t.Fatal(err)
	}
	// Cut the follower off from the sequencer.
	fabric.Partition([]jgroups.Address{"part-n0"}, []jgroups.Address{"part-n1"})

	ctx, cancel := context.WithTimeout(bg, 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = ic.Bind(ctx, "hdns://"+nodes[1].Addr()+"/during", 2)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned write: want DeadlineExceeded, got %v", err)
	}
	// The server-side write timeout is 10s; the caller must be released
	// by its own deadline, not the server's.
	if elapsed > 2*time.Second {
		t.Fatalf("caller waited %v past a 400ms deadline", elapsed)
	}
}

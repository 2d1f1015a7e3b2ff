package benchmark

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/costmodel"
	"gondi/internal/dnssrv"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/ldapsrv"
	"gondi/internal/provider/dnssp"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/ldapsp"
)

var registerOnce sync.Once

// registerProviders installs all URL providers (and the cache middleware
// factory, for the core.Open(WithCache) experiments) once per process.
func registerProviders() {
	registerOnce.Do(func() {
		jinisp.Register()
		hdnssp.Register()
		dnssp.Register()
		ldapsp.Register()
		cache.Register()
	})
}

// spiPayload is the object bound through the SPI in the Jini experiments;
// its marshalled form is what makes provider items fatter than raw stubs
// (the Figure 2 serialization penalty).
var spiPayload = strings.Repeat("resource-descriptor;", 11)

// rawStub is the bare proxy payload raw Jini clients register.
var rawStub = []byte("raw-service-stub")

// newJiniWorld starts a calibrated LUS and seeds the lookup targets.
func newJiniWorld() (*jini.LUS, func(), error) {
	registerProviders()
	lus, err := jini.NewLUS(jini.LUSConfig{
		ListenAddr: "127.0.0.1:0",
		Costs:      costmodel.JiniCosts(),
	})
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { lus.Close() }

	bg := context.Background()
	// Raw lookup target.
	seedReg, err := jini.DialRegistrar(lus.Addr(), 5*time.Second)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	defer seedReg.Close()
	if _, err := seedReg.Register(bg, jini.ServiceItem{
		ID: "raw-target", Types: []string{"bench.Service"}, Service: rawStub,
	}, jini.MaxLease); err != nil {
		cleanup()
		return nil, nil, err
	}

	// SPI lookup target, bound through the provider so its item carries
	// the wrapped (marshalled) form.
	seedCtx, err := jinisp.Open(bg, lus.Addr(), map[string]any{jinisp.EnvLeaseMs: int(jini.MaxLease.Milliseconds())})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := seedCtx.Bind(bg, "target", spiPayload); err != nil {
		seedCtx.Close()
		cleanup()
		return nil, nil, err
	}
	old := cleanup
	cleanup = func() { seedCtx.Close(); old() }
	return lus, cleanup, nil
}

func jiniRawFactory(addr string, write bool) ClientFactory {
	return func(client int) (func(ctx context.Context) error, func(), error) {
		reg, err := jini.DialRegistrar(addr, 5*time.Second)
		if err != nil {
			return nil, nil, err
		}
		if !write {
			tmpl := jini.ServiceTemplate{ID: "raw-target"}
			return func(ctx context.Context) error {
				items, err := reg.Lookup(ctx, tmpl, 1)
				if err != nil {
					return err
				}
				if len(items) == 0 {
					return fmt.Errorf("raw target missing")
				}
				return nil
			}, func() { reg.Close() }, nil
		}
		item := jini.ServiceItem{
			ID: jini.ServiceID(fmt.Sprintf("raw-write-%d", client)), Service: rawStub,
		}
		return func(ctx context.Context) error {
			_, err := reg.Register(ctx, item, jini.DefaultLease)
			return err
		}, func() { reg.Close() }, nil
	}
}

func jiniSPIFactory(addr, mode string, write bool) ClientFactory {
	return func(client int) (func(ctx context.Context) error, func(), error) {
		env := map[string]any{
			jinisp.EnvBind: mode,
			// Writes target per-client names, so each name has a
			// single writer and a small lock table suffices (§5.1's
			// "owner" observation).
			jinisp.EnvLockSlots: 4,
			jinisp.EnvLockSlot:  0,
			core.EnvPoolID:      client,
		}
		pc, err := jinisp.Open(context.Background(), addr, env)
		if err != nil {
			return nil, nil, err
		}
		if !write {
			return func(ctx context.Context) error {
				_, err := pc.Lookup(ctx, "target")
				return err
			}, func() { pc.Close() }, nil
		}
		name := fmt.Sprintf("w%d", client)
		return func(ctx context.Context) error {
			return pc.Rebind(ctx, name, spiPayload)
		}, func() { pc.Close() }, nil
	}
}

// RunFig2 regenerates Figure 2: Jini lookup throughput, raw vs JNDI
// provider (strict and relaxed are identical on reads).
func RunFig2(opts Options) (*Experiment, error) {
	lus, cleanup, err := newJiniWorld()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e := &Experiment{ID: "fig2", Title: "Jini + JNDI-Jini provider, lookup (read) ops/s"}
	for _, spec := range []struct {
		label   string
		factory ClientFactory
	}{
		{"jini", jiniRawFactory(lus.Addr(), false)},
		{"jini-spi-relaxed", jiniSPIFactory(lus.Addr(), "relaxed", false)},
		{"jini-spi-strict", jiniSPIFactory(lus.Addr(), "strict", false)},
	} {
		s, err := Sweep(spec.label, opts, spec.factory)
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// RunFig3 regenerates Figure 3: Jini rebind throughput; strict bind
// semantics pay the Eisenberg–McGuire 3-read/5-write critical section.
func RunFig3(opts Options) (*Experiment, error) {
	lus, cleanup, err := newJiniWorld()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e := &Experiment{ID: "fig3", Title: "Jini + JNDI-Jini provider, rebind (write) ops/s"}
	for _, spec := range []struct {
		label   string
		factory ClientFactory
	}{
		{"jini", jiniRawFactory(lus.Addr(), true)},
		{"jini-spi-relaxed", jiniSPIFactory(lus.Addr(), "relaxed", true)},
		{"jini-spi-strict", jiniSPIFactory(lus.Addr(), "strict", true)},
	} {
		s, err := Sweep(spec.label, opts, spec.factory)
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// newHDNSWorld starts a two-node replicated HDNS group (as in §7) with
// calibrated costs; clients talk to node 1, reproducing the paper's
// per-node measurements.
func newHDNSWorld(group string, costs func() *costmodel.Costs, stack jgroups.Config) (*hdns.Node, func(), error) {
	registerProviders()
	fabric := jgroups.NewFabric()
	n1, err := hdns.NewNode(hdns.NodeConfig{
		Group:      group,
		Transport:  fabric.Endpoint("bench-n1"),
		Stack:      stack,
		ListenAddr: "127.0.0.1:0",
		Costs:      costs(),
	})
	if err != nil {
		return nil, nil, err
	}
	n2, err := hdns.NewNode(hdns.NodeConfig{
		Group:      group,
		Transport:  fabric.Endpoint("bench-n2"),
		Stack:      stack,
		ListenAddr: "127.0.0.1:0",
		Costs:      costs(),
	})
	if err != nil {
		n1.Close()
		return nil, nil, err
	}
	// Seed the read target.
	seed, err := hdns.Dial(n1.Addr(), "", 5*time.Second)
	if err != nil {
		n2.Close()
		n1.Close()
		return nil, nil, err
	}
	data, _ := core.Marshal(spiPayload)
	if err := seed.Bind(context.Background(), []string{"target"}, data, map[string][]string{"type": {"bench"}}, 0); err != nil {
		seed.Close()
		n2.Close()
		n1.Close()
		return nil, nil, err
	}
	seed.Close()
	return n1, func() { n2.Close(); n1.Close() }, nil
}

func hdnsRawFactory(addr string, write bool) ClientFactory {
	return func(client int) (func(ctx context.Context) error, func(), error) {
		c, err := hdns.Dial(addr, "", 5*time.Second)
		if err != nil {
			return nil, nil, err
		}
		if !write {
			return func(ctx context.Context) error {
				v, err := c.Lookup(ctx, []string{"target"})
				if err != nil {
					return err
				}
				if !v.Exists {
					return fmt.Errorf("target missing")
				}
				return nil
			}, func() { c.Close() }, nil
		}
		name := []string{fmt.Sprintf("w%d", client)}
		data, _ := core.Marshal(spiPayload)
		return func(ctx context.Context) error {
			return c.Rebind(ctx, name, data, nil, false, 0)
		}, func() { c.Close() }, nil
	}
}

func hdnsSPIFactory(addr string, write bool) ClientFactory {
	return func(client int) (func(ctx context.Context) error, func(), error) {
		pc, err := hdnssp.Open(context.Background(), addr, map[string]any{core.EnvPoolID: client})
		if err != nil {
			return nil, nil, err
		}
		if !write {
			return func(ctx context.Context) error {
				_, err := pc.Lookup(ctx, "target")
				return err
			}, func() { pc.Close() }, nil
		}
		name := fmt.Sprintf("w%d", client)
		return func(ctx context.Context) error {
			return pc.Rebind(ctx, name, spiPayload)
		}, func() { pc.Close() }, nil
	}
}

// RunFig4 regenerates Figure 4: HDNS lookup throughput (read-any, served
// locally by one node), raw vs JNDI provider.
func RunFig4(opts Options) (*Experiment, error) {
	n1, cleanup, err := newHDNSWorld("fig4", costmodel.HDNSCosts, jgroups.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e := &Experiment{ID: "fig4", Title: "HDNS + JNDI-HDNS provider, lookup (read) ops/s"}
	for _, spec := range []struct {
		label   string
		factory ClientFactory
	}{
		{"hdns", hdnsRawFactory(n1.Addr(), false)},
		{"hdns-spi", hdnsSPIFactory(n1.Addr(), false)},
	} {
		s, err := Sweep(spec.label, opts, spec.factory)
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// RunFig5 regenerates Figure 5: HDNS rebind throughput, including the
// overload collapse past ~20 clients caused by unbounded queue growth.
func RunFig5(opts Options) (*Experiment, error) {
	n1, cleanup, err := newHDNSWorld("fig5", costmodel.HDNSCosts, jgroups.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e := &Experiment{ID: "fig5", Title: "HDNS + JNDI-HDNS provider, rebind (write) ops/s"}
	for _, spec := range []struct {
		label   string
		factory ClientFactory
	}{
		{"hdns", hdnsRawFactory(n1.Addr(), true)},
		{"hdns-spi", hdnsSPIFactory(n1.Addr(), true)},
	} {
		s, err := Sweep(spec.label, opts, spec.factory)
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// newDNSWorld starts a calibrated DNS server with a populated zone.
func newDNSWorld() (*dnssrv.Server, func(), error) {
	registerProviders()
	srv, err := dnssrv.NewServer("127.0.0.1:0", costmodel.DNSCosts())
	if err != nil {
		return nil, nil, err
	}
	z := dnssrv.NewZone("global")
	z.Add(dnssrv.RR{Name: "target.global", Type: dnssrv.TypeTXT, Txt: []string{"bench-record"}})
	z.Add(dnssrv.RR{Name: "target.global", Type: dnssrv.TypeA, A: netip.MustParseAddr("10.1.2.3")})
	srv.AddZone(z)
	return srv, func() { srv.Close() }, nil
}

// RunFig6 regenerates Figure 6: JNDI-DNS lookup throughput.
func RunFig6(opts Options) (*Experiment, error) {
	srv, cleanup, err := newDNSWorld()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e := &Experiment{ID: "fig6", Title: "JNDI-DNS provider, lookup (read) ops/s"}
	factory := func(client int) (func(ctx context.Context) error, func(), error) {
		// One resolver (one socket) per client, as N independent JNDI
		// clients have: the provider pools resolvers by pool ID.
		nc, rest, err := core.OpenURL(context.Background(), "dns://"+srv.Addr()+"/global", map[string]any{core.EnvPoolID: client})
		if err != nil {
			return nil, nil, err
		}
		dc := nc.(core.DirContext)
		base := rest.String()
		return func(ctx context.Context) error {
			attrs, err := dc.GetAttributes(ctx, base+"/target")
			if err != nil {
				return err
			}
			if attrs.GetFirst("TXT") == "" {
				return fmt.Errorf("no TXT")
			}
			return nil
		}, func() { nc.Close() }, nil
	}
	s, err := Sweep("dns", opts, factory)
	if err != nil {
		return nil, err
	}
	e.Series = append(e.Series, s)
	return e, nil
}

// newLDAPWorld starts a calibrated LDAP server (with the OpenLDAP-style
// read throttle) and seeds the read target.
func newLDAPWorld() (*ldapsrv.Server, func(), error) {
	registerProviders()
	srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{
		BaseDN: "dc=bench",
		Costs:  costmodel.LDAPCosts(),
	})
	if err != nil {
		return nil, nil, err
	}
	bg := context.Background()
	seed, err := ldapsp.Open(bg, srv.Addr(), "dc=bench", map[string]any{})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	if err := seed.BindAttrs(bg, "target", spiPayload, core.NewAttributes("type", "bench")); err != nil {
		seed.Close()
		srv.Close()
		return nil, nil, err
	}
	seed.Close()
	return srv, func() { srv.Close() }, nil
}

// RunFig7 regenerates Figure 7: JNDI-LDAP read (plateauing at the
// server-side throttle) and write (scaling well) throughput.
func RunFig7(opts Options) (*Experiment, error) {
	srv, cleanup, err := newLDAPWorld()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e := &Experiment{ID: "fig7", Title: "JNDI-LDAP provider, lookup and rebind ops/s"}

	readFactory := func(client int) (func(ctx context.Context) error, func(), error) {
		// Distinct pool IDs give each client thread its own LDAP
		// connection (the wire protocol is synchronous per
		// connection).
		pc, err := ldapsp.Open(context.Background(), srv.Addr(), "dc=bench", map[string]any{core.EnvPoolID: client})
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context) error {
			_, err := pc.Lookup(ctx, "target")
			return err
		}, func() { pc.Close() }, nil
	}
	writeFactory := func(client int) (func(ctx context.Context) error, func(), error) {
		pc, err := ldapsp.Open(context.Background(), srv.Addr(), "dc=bench", map[string]any{core.EnvPoolID: client})
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("w%d", client)
		attrs := core.NewAttributes("type", "bench-write")
		return func(ctx context.Context) error {
			return pc.RebindAttrs(ctx, name, spiPayload, attrs)
		}, func() { pc.Close() }, nil
	}
	s, err := Sweep("lookup", opts, readFactory)
	if err != nil {
		return nil, err
	}
	e.Series = append(e.Series, s)
	s, err = Sweep("rebind", opts, writeFactory)
	if err != nil {
		return nil, err
	}
	e.Series = append(e.Series, s)
	return e, nil
}

// RunAblationBindSemantics isolates the bind-semantics trade-off space:
// relaxed (§5.1, no atomicity), proxy (the §7 optimization: locking
// colocated with the LUS), and strict (client-side Eisenberg–McGuire).
func RunAblationBindSemantics(opts Options) (*Experiment, error) {
	lus, cleanup, err := newJiniWorld()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	proxy, err := jini.NewBindProxy(lus.Addr(), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	e := &Experiment{ID: "ablation-bind", Title: "Jini provider bind semantics (write path)"}
	for _, mode := range []string{"relaxed", "proxy", "strict"} {
		factory := jiniSPIProxyFactory(lus.Addr(), proxy.Addr(), mode)
		s, err := Sweep("spi-"+mode, opts, factory)
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// jiniSPIProxyFactory is jiniSPIFactory plus the proxy address (writes).
func jiniSPIProxyFactory(addr, proxyAddr, mode string) ClientFactory {
	return func(client int) (func(ctx context.Context) error, func(), error) {
		pc, err := jinisp.Open(context.Background(), addr, map[string]any{
			jinisp.EnvBind:      mode,
			jinisp.EnvProxyAddr: proxyAddr,
			jinisp.EnvLockSlots: 4,
			jinisp.EnvLockSlot:  0,
			core.EnvPoolID:      client,
		})
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("w%d", client)
		return func(ctx context.Context) error {
			return pc.Rebind(ctx, name, spiPayload)
		}, func() { pc.Close() }, nil
	}
}

// RunAblationHDNSStack compares the two §4.2 protocol suites under the
// write workload.
func RunAblationHDNSStack(opts Options) (*Experiment, error) {
	e := &Experiment{ID: "ablation-stack", Title: "HDNS write throughput: bimodal vs virtual synchrony"}
	for _, spec := range []struct {
		label string
		cfg   jgroups.Config
	}{
		{"bimodal", jgroups.DefaultConfig()},
		{"virtual-synchrony", jgroups.VirtualSynchronyConfig()},
	} {
		n1, cleanup, err := newHDNSWorld("ablation-"+spec.label, costmodel.HDNSCosts, spec.cfg)
		if err != nil {
			return nil, err
		}
		s, err := Sweep(spec.label, opts, hdnsRawFactory(n1.Addr(), true))
		cleanup()
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// RunAblationQueueBound compares unbounded queues (the paper's deployed
// configuration, which collapses) against the bounded-queue fix it says
// it is investigating.
func RunAblationQueueBound(opts Options) (*Experiment, error) {
	e := &Experiment{ID: "ablation-queue", Title: "HDNS write overload: unbounded vs bounded queues"}
	for _, spec := range []struct {
		label string
		costs func() *costmodel.Costs
	}{
		{"unbounded", costmodel.HDNSCosts},
		{"bounded", costmodel.HDNSBoundedCosts},
	} {
		n1, cleanup, err := newHDNSWorld("queue-"+spec.label, spec.costs, jgroups.DefaultConfig())
		if err != nil {
			return nil, err
		}
		s, err := Sweep(spec.label, opts, hdnsRawFactory(n1.Addr(), true))
		cleanup()
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// RunAblationFederationDepth measures the cost of each federation hop:
// the same object read directly, through one boundary, and through two.
func RunAblationFederationDepth(opts Options) (*Experiment, error) {
	registerProviders()
	// Leaf: LDAP holding the object.
	ldapSrv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=leaf"})
	if err != nil {
		return nil, err
	}
	defer ldapSrv.Close()
	bg := context.Background()
	seed, err := ldapsp.Open(bg, ldapSrv.Addr(), "dc=leaf", map[string]any{})
	if err != nil {
		return nil, err
	}
	if err := seed.Bind(bg, "mokey", "the-object"); err != nil {
		seed.Close()
		return nil, err
	}
	seed.Close()

	// Middle: HDNS referencing the LDAP server.
	fabric := jgroups.NewFabric()
	node, err := hdns.NewNode(hdns.NodeConfig{
		Group: "fed-depth", Transport: fabric.Endpoint("fed-n1"),
		Stack: jgroups.DefaultConfig(), ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	defer node.Close()
	hctx, err := hdnssp.Open(bg, node.Addr(), map[string]any{})
	if err != nil {
		return nil, err
	}
	if err := hctx.Bind(bg, "dcl", core.NewContextReference("ldap://"+ldapSrv.Addr()+"/dc=leaf")); err != nil {
		hctx.Close()
		return nil, err
	}
	hctx.Close()

	// Root: DNS anchoring the HDNS node.
	dnsSrv, err := dnssrv.NewServer("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer dnsSrv.Close()
	z := dnssrv.NewZone("global")
	z.Add(dnssrv.RR{Name: "mathcs.global", Type: dnssrv.TypeTXT, Txt: []string{"hdns://" + node.Addr()}})
	dnsSrv.AddZone(z)

	urls := []struct {
		label string
		url   string
	}{
		{"direct-ldap", "ldap://" + ldapSrv.Addr() + "/dc=leaf/mokey"},
		{"via-hdns", "hdns://" + node.Addr() + "/dcl/mokey"},
		{"via-dns-hdns", "dns://" + dnsSrv.Addr() + "/global/mathcs/dcl/mokey"},
	}
	e := &Experiment{ID: "ablation-federation", Title: "Lookup through increasing federation depth"}
	for _, u := range urls {
		url := u.url
		factory := func(client int) (func(ctx context.Context) error, func(), error) {
			ic, err := core.Open(bg)
			if err != nil {
				return nil, nil, err
			}
			return func(ctx context.Context) error {
				obj, err := ic.Lookup(ctx, url)
				if err != nil {
					return err
				}
				if obj != "the-object" {
					return fmt.Errorf("wrong object %v", obj)
				}
				return nil
			}, func() { ic.Close() }, nil
		}
		s, err := Sweep(u.label, opts, factory)
		if err != nil {
			return nil, err
		}
		e.Series = append(e.Series, s)
	}
	return e, nil
}

// Experiments maps experiment IDs to their runners.
var Experiments = map[string]func(Options) (*Experiment, error){
	"fig2":                RunFig2,
	"fig3":                RunFig3,
	"fig4":                RunFig4,
	"fig5":                RunFig5,
	"fig6":                RunFig6,
	"fig7":                RunFig7,
	"ablation-bind":       RunAblationBindSemantics,
	"ablation-stack":      RunAblationHDNSStack,
	"ablation-queue":      RunAblationQueueBound,
	"ablation-federation": RunAblationFederationDepth,
}

// OrderedIDs lists the experiments in presentation order.
var OrderedIDs = []string{
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"ablation-bind", "ablation-stack", "ablation-queue", "ablation-federation",
}

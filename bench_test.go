package gondi

// One testing.B benchmark per paper figure, plus ablation benches for the
// design choices DESIGN.md calls out. These measure the real, uncalibrated
// implementation (per-operation latency and allocations of each provider
// path); the calibrated throughput *curves* of Figures 2-7 are regenerated
// by `go run ./cmd/ippsbench` (or the shape tests in internal/benchmark),
// and the end-to-end and per-layer cost of this code under load by the
// nested bench/ module (`bash bench/run.sh`, bench/README.md).

import (
	"context"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

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

func benchLUS(b *testing.B) *jini.LUS {
	b.Helper()
	registerAll()
	lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { lus.Close() })
	return lus
}

func benchHDNS(b *testing.B, group string, stack jgroups.Config, members int) *hdns.Node {
	b.Helper()
	registerAll()
	fabric := jgroups.NewFabric()
	var first *hdns.Node
	for i := 0; i < members; i++ {
		n, err := hdns.NewNode(hdns.NodeConfig{
			Group:      group,
			Transport:  fabric.Endpoint(jgroups.Address(fmt.Sprintf("bench-node-%d", i+1))),
			Stack:      stack,
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		if first == nil {
			first = n
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if v := first.Channel().View(); v != nil && len(v.Members) == members {
			return first
		}
		if time.Now().After(deadline) {
			b.Fatalf("%d-node group did not form", members)
		}
	}
}

// BenchmarkFig2JiniLookup: the read path of Figure 2 — raw registrar
// lookups versus lookups through the JNDI provider (which adds the
// state/object factory translation).
func BenchmarkFig2JiniLookup(b *testing.B) {
	ctx := context.Background()
	lus := benchLUS(b)
	reg, err := jini.DialRegistrar(lus.Addr(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.Register(ctx, jini.ServiceItem{ID: "raw", Service: []byte("stub")}, jini.MaxLease); err != nil {
		b.Fatal(err)
	}
	pc, err := jinisp.Open(ctx, lus.Addr(), map[string]any{core.EnvPoolID: "bench-fig2"})
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	if err := pc.Rebind(ctx, "target", "provider-payload"); err != nil {
		b.Fatal(err)
	}

	b.Run("raw", func(b *testing.B) {
		tmpl := jini.ServiceTemplate{ID: "raw"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := reg.LookupOne(ctx, tmpl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pc.Lookup(ctx, "target"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig3JiniRebind: the write path of Figure 3 — raw registration,
// relaxed provider rebind, and strict provider rebind paying the
// Eisenberg–McGuire critical section.
func BenchmarkFig3JiniRebind(b *testing.B) {
	ctx := context.Background()
	lus := benchLUS(b)
	reg, err := jini.DialRegistrar(lus.Addr(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()

	b.Run("raw", func(b *testing.B) {
		item := jini.ServiceItem{ID: "w", Service: []byte("stub")}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Register(ctx, item, jini.DefaultLease); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []string{"relaxed", "strict"} {
		b.Run("spi-"+mode, func(b *testing.B) {
			pc, err := jinisp.Open(ctx, lus.Addr(), map[string]any{
				jinisp.EnvBind: mode, jinisp.EnvLockSlots: 4, jinisp.EnvLockSlot: 0,
				core.EnvPoolID: "bench-fig3-" + mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pc.Rebind(ctx, "w-"+mode, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4HDNSLookup: the read path of Figure 4 — raw HDNS client
// versus the JNDI provider.
func BenchmarkFig4HDNSLookup(b *testing.B) {
	ctx := context.Background()
	node := benchHDNS(b, "bench-fig4", jgroups.DefaultConfig(), 1)
	raw, err := hdns.Dial(node.Addr(), "", 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer raw.Close()
	data, _ := core.Marshal("payload")
	if err := raw.Bind(ctx, []string{"target"}, data, nil, 0); err != nil {
		b.Fatal(err)
	}
	pc, err := hdnssp.Open(ctx, node.Addr(), map[string]any{core.EnvPoolID: "bench-fig4"})
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()

	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := raw.Lookup(ctx, []string{"target"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pc.Lookup(ctx, "target"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5HDNSRebind: the write path of Figure 5 — every write is
// replicated through the group channel before acknowledgement.
func BenchmarkFig5HDNSRebind(b *testing.B) {
	ctx := context.Background()
	node := benchHDNS(b, "bench-fig5", jgroups.DefaultConfig(), 1)
	raw, err := hdns.Dial(node.Addr(), "", 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer raw.Close()
	pc, err := hdnssp.Open(ctx, node.Addr(), map[string]any{core.EnvPoolID: "bench-fig5"})
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	data, _ := core.Marshal("payload")

	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := raw.Rebind(ctx, []string{"w"}, data, nil, false, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pc.Rebind(ctx, "w2", i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6DNSLookup: the JNDI-DNS read path of Figure 6 (a full UDP
// DNS exchange per operation).
func BenchmarkFig6DNSLookup(b *testing.B) {
	ctx := context.Background()
	registerAll()
	srv, err := dnssrv.NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	z := dnssrv.NewZone("global")
	z.Add(dnssrv.RR{Name: "target.global", Type: dnssrv.TypeTXT, Txt: []string{"record"}})
	z.Add(dnssrv.RR{Name: "target.global", Type: dnssrv.TypeA, A: netip.MustParseAddr("10.0.0.1")})
	srv.AddZone(z)
	nc, rest, err := core.OpenURL(ctx, "dns://"+srv.Addr()+"/global", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	dc := nc.(*dnssp.Context)
	name := rest.String() + "/target"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dc.GetAttributes(ctx, name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7LDAP: the JNDI-LDAP read and write paths of Figure 7
// (BER-encoded searches and delete+add rebinds).
func BenchmarkFig7LDAP(b *testing.B) {
	ctx := context.Background()
	registerAll()
	srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	pc, err := ldapsp.Open(ctx, srv.Addr(), "dc=bench", map[string]any{core.EnvPoolID: "bench-fig7"})
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	if err := pc.Bind(ctx, "target", "payload"); err != nil {
		b.Fatal(err)
	}
	attrs := core.NewAttributes("type", "bench")

	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pc.Lookup(ctx, "target"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pc.RebindAttrs(ctx, "w", i, attrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var bindNonce atomic.Int64

// BenchmarkAblationBindSemantics isolates the §5.1 trade-off on the bind
// (create) path: strict pays the full distributed lock cycle; proxy (the
// §7 optimization) pays one extra round trip to a lock colocated with the
// LUS; relaxed pays nothing and gives up atomicity.
func BenchmarkAblationBindSemantics(b *testing.B) {
	ctx := context.Background()
	lus := benchLUS(b)
	proxy, err := jini.NewBindProxy(lus.Addr(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer proxy.Close()
	for _, mode := range []string{"relaxed", "proxy", "strict"} {
		b.Run(mode, func(b *testing.B) {
			pc, err := jinisp.Open(ctx, lus.Addr(), map[string]any{
				jinisp.EnvBind: mode, jinisp.EnvLockSlots: 4, jinisp.EnvLockSlot: 0,
				jinisp.EnvProxyAddr: proxy.Addr(),
				core.EnvPoolID:      "bench-ablation-" + mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer pc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The framework re-runs with growing b.N; a nonce
				// keeps bind targets fresh across runs.
				name := fmt.Sprintf("b-%s-%d", mode, bindNonce.Add(1))
				if err := pc.Bind(ctx, name, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHDNSStack compares the §4.2 protocol suites on the
// replicated write path: serial rebinds through the coordinator of a
// 2-node group, so every write is multicast to the other member and
// acknowledged back into the credit window.
func BenchmarkAblationHDNSStack(b *testing.B) {
	ctx := context.Background()
	for _, spec := range []struct {
		name string
		cfg  jgroups.Config
	}{
		{"bimodal", jgroups.DefaultConfig()},
		{"vsync", jgroups.VirtualSynchronyConfig()},
	} {
		b.Run(spec.name, func(b *testing.B) {
			node := benchHDNS(b, "bench-stack-"+spec.name, spec.cfg, 2)
			raw, err := hdns.Dial(node.Addr(), "", 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer raw.Close()
			data, _ := core.Marshal("x")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := raw.Rebind(ctx, []string{"w"}, data, nil, false, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQueueBound contrasts the HDNS write path's two buffer
// policies under concurrent load: the paper's deployed unbounded queues
// (whose service time degrades with backlog — the Figure 5 collapse) and
// the bounded-queue fix (stable service, explicit rejections).
func BenchmarkAblationQueueBound(b *testing.B) {
	for _, spec := range []struct {
		name  string
		costs func() *costmodel.Costs
	}{
		{"unbounded", costmodel.HDNSCosts},
		{"bounded", costmodel.HDNSBoundedCosts},
	} {
		b.Run(spec.name, func(b *testing.B) {
			costs := spec.costs()
			var rejected atomic.Int64
			// Enough concurrency to overload the single write worker
			// (and exceed the bounded variant's queue cap).
			b.SetParallelism(64)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if !costs.WriteCost(0) {
						rejected.Add(1)
					}
				}
			})
			b.ReportMetric(float64(rejected.Load())/float64(b.N), "rejected/op")
		})
	}
}

// BenchmarkAblationFederationDepth measures the per-hop resolution cost:
// the same object read directly and through one and two federation
// boundaries (with pooled provider connections).
func BenchmarkAblationFederationDepth(b *testing.B) {
	ctx := context.Background()
	registerAll()
	ldapSrv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=leaf"})
	if err != nil {
		b.Fatal(err)
	}
	defer ldapSrv.Close()
	node := benchHDNS(b, "bench-fed", jgroups.DefaultConfig(), 1)
	dnsSrv, err := dnssrv.NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer dnsSrv.Close()
	z := dnssrv.NewZone("global")
	z.Add(dnssrv.RR{Name: "site.global", Type: dnssrv.TypeTXT, Txt: []string{"hdns://" + node.Addr()}})
	dnsSrv.AddZone(z)

	ic := core.NewInitialContext(nil)
	if err := ic.Bind(ctx, "ldap://"+ldapSrv.Addr()+"/dc=leaf/obj", "data"); err != nil {
		b.Fatal(err)
	}
	if err := ic.Bind(ctx, "hdns://"+node.Addr()+"/leafref",
		core.NewContextReference("ldap://"+ldapSrv.Addr()+"/dc=leaf")); err != nil {
		b.Fatal(err)
	}

	for _, spec := range []struct {
		name string
		url  string
	}{
		{"0-hops-ldap", "ldap://" + ldapSrv.Addr() + "/dc=leaf/obj"},
		{"1-hop-hdns", "hdns://" + node.Addr() + "/leafref/obj"},
		{"2-hops-dns", "dns://" + dnsSrv.Addr() + "/global/site/leafref/obj"},
	} {
		b.Run(spec.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				obj, err := ic.Lookup(ctx, spec.url)
				if err != nil {
					b.Fatal(err)
				}
				if obj != "data" {
					b.Fatalf("got %v", obj)
				}
			}
		})
	}
}

package serverutil_test

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/dnssrv"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/jxta"
	"gondi/internal/ldapsrv"
	"gondi/internal/obs"
	"gondi/internal/serverutil"
)

// countingCosts counts the charges a server's pipeline makes.
type countingCosts struct{ reads, writes atomic.Int64 }

func (c *countingCosts) ReadCost(int) bool  { c.reads.Add(1); return true }
func (c *countingCosts) WriteCost(int) bool { c.writes.Add(1); return true }

// startHDNS boots a one-node hdns group behind adm, charging costs, and
// dials it.
func startHDNS(t *testing.T, group string, adm *admission.Controller, costs serverutil.Costs) *hdns.Client {
	n, err := hdns.NewNode(hdns.NodeConfig{
		Group:      group,
		Transport:  jgroups.NewFabric().Endpoint("n1"),
		Stack:      jgroups.DefaultConfig(),
		ListenAddr: "127.0.0.1:0",
		Admission:  adm,
		Costs:      costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	c, err := hdns.Dial(n.Addr(), "", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// Every server meters and charges through its pipeline: one request
// moves its {proto,method} request counter and latency histogram by
// exactly one and is charged exactly once, as its class says; a shed
// request moves only gondi_admission_shed_total, is charged nothing and
// comes back as a *core.ServerBusyError.
func TestServersMeterThroughPipeline(t *testing.T) {
	for _, tc := range []struct {
		proto, method string
		class         admission.Class
		// start boots the server behind adm, charging costs when the
		// server takes them, and returns one request that it serves as
		// method.
		start func(t *testing.T, adm *admission.Controller, costs serverutil.Costs) func(context.Context) error
		// uncharged marks the one server that takes no Costs.
		uncharged bool
	}{
		{"hdns", "hdns.lookup", admission.Read, func(t *testing.T, adm *admission.Controller, costs serverutil.Costs) func(context.Context) error {
			c := startHDNS(t, "meter", adm, costs)
			return func(ctx context.Context) error {
				_, err := c.Lookup(ctx, []string{"x"})
				return err
			}
		}, false},
		{"hdns", "hdns.rebind", admission.Write, func(t *testing.T, adm *admission.Controller, costs serverutil.Costs) func(context.Context) error {
			c := startHDNS(t, "meter-w", adm, costs)
			return func(ctx context.Context) error {
				return c.Rebind(ctx, []string{"x"}, []byte("v"), nil, false, 0)
			}
		}, false},
		{"jini", "jini.lookup", admission.Search, func(t *testing.T, adm *admission.Controller, costs serverutil.Costs) func(context.Context) error {
			lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0", Admission: adm, Costs: costs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lus.Close() })
			r, err := jini.DialRegistrar(lus.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return func(ctx context.Context) error {
				_, err := r.Lookup(ctx, jini.ServiceTemplate{}, 1)
				return err
			}
		}, false},
		{"jxta", "jxta.subGroups", admission.Read, func(t *testing.T, adm *admission.Controller, _ serverutil.Costs) func(context.Context) error {
			rdv, err := jxta.NewRendezvous("127.0.0.1:0", jxta.WithAdmission(adm))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rdv.Close() })
			p, err := jxta.DialPeer(rdv.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return func(ctx context.Context) error {
				_, err := p.SubGroups(ctx, jxta.NetGroup)
				return err
			}
		}, true},
		{"dns", "dns.query", admission.Read, func(t *testing.T, adm *admission.Controller, costs serverutil.Costs) func(context.Context) error {
			srv, err := dnssrv.NewServer("127.0.0.1:0", costs, dnssrv.WithAdmission(adm))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			z := dnssrv.NewZone("meter")
			z.Add(dnssrv.RR{Name: "a.meter", Type: dnssrv.TypeA, A: netip.MustParseAddr("10.0.0.1")})
			srv.AddZone(z)
			r := dnssrv.NewResolver(srv.Addr())
			return func(ctx context.Context) error {
				_, err := r.Query(ctx, "a.meter", dnssrv.TypeA)
				return err
			}
		}, false},
		{"ldap", "ldap.search", admission.Search, func(t *testing.T, adm *admission.Controller, costs serverutil.Costs) func(context.Context) error {
			srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=meter", Admission: adm, Costs: costs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c, err := ldapsrv.Dial(srv.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return func(ctx context.Context) error {
				_, err := c.Search(ctx, "dc=meter", "(objectClass=*)", nil)
				return err
			}
		}, false},
	} {
		name := tc.proto
		if tc.class == admission.Write {
			name += "-write"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			server := "meter-" + tc.proto
			// A bound of 1 leaves every class one slot, so holding it
			// sheds the class's next request.
			adm := admission.NewController(admission.NewOptions(
				admission.WithServer(server), admission.WithQueueBound(1)))
			costs := &countingCosts{}
			request := tc.start(t, adm, costs)

			labels := []obs.Label{{K: "proto", V: tc.proto}, {K: "method", V: tc.method}}
			reqs := obs.Default.Counter("gondi_server_requests_total", "", labels...)
			lat := obs.Default.Histogram("gondi_server_request_seconds", "", labels...)
			sheds := obs.Default.Counter("gondi_admission_shed_total", "",
				obs.Label{K: "server", V: server}, obs.Label{K: "class", V: tc.class.String()})
			moved := func(what string, wantReqs, wantSheds int64, do func()) {
				t.Helper()
				r0, l0, s0 := reqs.Value(), lat.Count(), sheds.Value()
				cr0, cw0 := costs.reads.Load(), costs.writes.Load()
				do()
				wantR, wantW := int64(0), int64(0)
				switch {
				case tc.uncharged || wantReqs == 0:
				case tc.class == admission.Write:
					wantW = 1
				default:
					wantR = 1
				}
				if dr, dw := costs.reads.Load()-cr0, costs.writes.Load()-cw0; dr != wantR || dw != wantW {
					t.Errorf("%s: charged %d reads and %d writes, want %d and %d", what, dr, dw, wantR, wantW)
				}
				if d := reqs.Value() - r0; d != wantReqs {
					t.Errorf("%s: requests counter moved by %d, want %d", what, d, wantReqs)
				}
				if d := lat.Count() - l0; d != wantReqs {
					t.Errorf("%s: latency histogram moved by %d, want %d", what, d, wantReqs)
				}
				if d := sheds.Value() - s0; d != wantSheds {
					t.Errorf("%s: shed counter moved by %d, want %d", what, d, wantSheds)
				}
			}

			moved("served request", 1, 0, func() {
				if err := request(ctx); err != nil {
					t.Fatalf("request: %v", err)
				}
			})
			release, err := adm.Admit(tc.class, "test", "hold")
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			moved("shed request", 0, 1, func() {
				var busy *core.ServerBusyError
				if err := request(ctx); !errors.As(err, &busy) {
					t.Fatalf("request with the class's slot held: %v, want a *core.ServerBusyError", err)
				}
			})
		})
	}
}

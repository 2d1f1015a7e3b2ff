package serverutil_test

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"gondi/internal/admission"
	"gondi/internal/dnssrv"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/jxta"
	"gondi/internal/ldapsrv"
	"gondi/internal/obs"
)

// Every server meters through its pipeline: one request moves its
// {proto,method} request counter and latency histogram by exactly one,
// and a shed request moves only gondi_admission_shed_total.
func TestServersMeterThroughPipeline(t *testing.T) {
	for _, tc := range []struct {
		proto, method string
		class         admission.Class
		// start boots the server behind adm and returns one request
		// that it serves as method.
		start func(t *testing.T, adm *admission.Controller) func(context.Context) error
	}{
		{"hdns", "hdns.lookup", admission.Read, func(t *testing.T, adm *admission.Controller) func(context.Context) error {
			n, err := hdns.NewNode(hdns.NodeConfig{
				Group:      "meter",
				Transport:  jgroups.NewFabric().Endpoint("n1"),
				Stack:      jgroups.DefaultConfig(),
				ListenAddr: "127.0.0.1:0",
				Admission:  adm,
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
			return func(ctx context.Context) error {
				_, err := c.Lookup(ctx, []string{"x"})
				return err
			}
		}},
		{"jini", "jini.lookup", admission.Search, func(t *testing.T, adm *admission.Controller) func(context.Context) error {
			lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0", Admission: adm})
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
		}},
		{"jxta", "jxta.subGroups", admission.Read, func(t *testing.T, adm *admission.Controller) func(context.Context) error {
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
		}},
		{"dns", "dns.query", admission.Read, func(t *testing.T, adm *admission.Controller) func(context.Context) error {
			srv, err := dnssrv.NewServer("127.0.0.1:0", nil, dnssrv.WithAdmission(adm))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			z := dnssrv.NewZone("meter")
			z.Add(dnssrv.RR{Name: "a.meter", Type: dnssrv.TypeA, A: netip.MustParseAddr("10.0.0.1")})
			srv.AddZone(z)
			r := dnssrv.NewResolver(srv.Addr())
			return func(ctx context.Context) error {
				_, err := r.LookupA(ctx, "a.meter")
				return err
			}
		}},
		{"ldap", "ldap.search", admission.Search, func(t *testing.T, adm *admission.Controller) func(context.Context) error {
			srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=meter", Admission: adm})
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
		}},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			server := "meter-" + tc.proto
			// A bound of 1 leaves every class one slot, so holding it
			// sheds the class's next request.
			adm := admission.NewController(admission.NewOptions(
				admission.WithServer(server), admission.WithQueueBound(1)))
			request := tc.start(t, adm)

			labels := []obs.Label{{K: "proto", V: tc.proto}, {K: "method", V: tc.method}}
			reqs := obs.Default.Counter("gondi_server_requests_total", "", labels...)
			lat := obs.Default.Histogram("gondi_server_request_seconds", "", labels...)
			sheds := obs.Default.Counter("gondi_admission_shed_total", "",
				obs.Label{K: "server", V: server}, obs.Label{K: "class", V: tc.class.String()})
			moved := func(what string, wantReqs, wantSheds int64, do func()) {
				t.Helper()
				r0, l0, s0 := reqs.Value(), lat.Count(), sheds.Value()
				do()
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
				if err := request(ctx); err == nil {
					t.Fatal("request with the class's slot held succeeded, want a busy answer")
				}
			})
		})
	}
}

package gondi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/dnssrv"
	"gondi/internal/jxta"
	"gondi/internal/provider/fssp"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/jxtasp"
	"gondi/internal/provider/ldapsp"
	"gondi/internal/provider/memsp"
)

// TestProviderSearchRule pins the one SearchControls rule on all seven
// providers. Each searches a context "srch" holding three matches at two
// depths (b, d and a/z) beside a miss (c) and the subcontext a:
//   - a CountLimit met exactly returns every match and no error;
//   - a CountLimit exceeded returns that many, the shallowest, and a
//     *core.LimitExceededError;
//   - an expired TimeLimit returns a *core.TimeLimitExceededError;
//   - the results come back shallowest first, then by name.
//
// DNS is read-only, so its zone is seeded server-side: each match is a
// domain with a TXT record, found by the filter (TXT=hit).
func TestProviderSearchRule(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	zone := dnssrv.NewZone("srch")
	for _, name := range []string{"b.srch", "d.srch", "z.a.srch"} {
		zone.Add(dnssrv.RR{Name: name, Type: dnssrv.TypeTXT, Txt: []string{"hit"}})
	}
	zone.Add(dnssrv.RR{Name: "c.srch", Type: dnssrv.TypeTXT, Txt: []string{"miss"}})
	w.dns.AddZone(zone)
	rdv, err := jxta.NewRendezvous("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })

	env := func() map[string]any { return map[string]any{core.EnvPoolID: t.Name()} }
	for _, p := range []struct {
		name   string
		open   func() (core.Context, error)
		filter string
		seeded bool // the server holds the entries already
	}{
		{name: "memsp", open: func() (core.Context, error) {
			return memsp.NewContext(memsp.NewTree(), nil, ""), nil
		}},
		{name: "fssp", open: func() (core.Context, error) {
			return fssp.NewContext(t.TempDir(), nil), nil
		}},
		{name: "jinisp", open: func() (core.Context, error) {
			return jinisp.Open(ctx, w.lus.Addr(), env())
		}},
		{name: "dnssp", filter: "(TXT=hit)", seeded: true, open: func() (core.Context, error) {
			c, _, err := core.OpenURL(ctx, "dns://"+w.dns.Addr(), env())
			return c, err
		}},
		{name: "jxtasp", open: func() (core.Context, error) {
			return jxtasp.Open(ctx, rdv.Addr(), env())
		}},
		{name: "hdnssp", open: func() (core.Context, error) {
			return hdnssp.Open(ctx, w.nodes[0].Addr(), env())
		}},
		{name: "ldapsp", open: func() (core.Context, error) {
			return ldapsp.Open(ctx, w.ldap.Addr(), "dc=dcl", env())
		}},
	} {
		t.Run(p.name, func(t *testing.T) {
			c, err := p.open()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			dc := c.(core.DirContext)
			if !p.seeded {
				seedSearch(t, dc)
			}
			if p.filter == "" {
				p.filter = "(type=hit)"
			}
			search := func(controls *core.SearchControls) ([]string, error) {
				res, err := dc.Search(ctx, "srch", p.filter, controls)
				names := make([]string, len(res))
				for i, r := range res {
					names[i] = r.Name
				}
				return names, err
			}

			t.Run("limit_met", func(t *testing.T) {
				names, err := search(&core.SearchControls{Scope: core.ScopeSubtree, CountLimit: 3})
				if err != nil || len(names) != 3 {
					t.Fatalf("CountLimit 3 over 3 matches = %v, %v; want 3 results and no error", names, err)
				}
			})
			t.Run("limit_exceeded", func(t *testing.T) {
				names, err := search(&core.SearchControls{Scope: core.ScopeSubtree, CountLimit: 2})
				var lim *core.LimitExceededError
				if !errors.As(err, &lim) || fmt.Sprint(names) != "[b d]" {
					t.Fatalf("CountLimit 2 over 3 matches = %v, %v; want [b d] and a LimitExceededError", names, err)
				}
			})
			t.Run("time_limit", func(t *testing.T) {
				names, err := search(&core.SearchControls{Scope: core.ScopeSubtree, TimeLimit: time.Nanosecond})
				var tle *core.TimeLimitExceededError
				if !errors.As(err, &tle) {
					t.Fatalf("TimeLimit 1ns = %v, %v; want a TimeLimitExceededError", names, err)
				}
			})
			t.Run("order", func(t *testing.T) {
				names, err := search(nil)
				if err != nil || fmt.Sprint(names) != "[b d a/z]" {
					t.Fatalf("subtree search = %v, %v; want [b d a/z]", names, err)
				}
			})
		})
	}
}

// seedSearch binds the entries TestProviderSearchRule searches, deepest
// first so that no provider's insertion order is its answer's order.
func seedSearch(t *testing.T, c core.DirContext) {
	ctx := context.Background()
	t.Helper()
	hit := core.NewAttributes("type", "hit")
	for _, step := range []func() error{
		func() error { _, err := c.CreateSubcontext(ctx, "srch"); return err },
		func() error { _, err := c.CreateSubcontext(ctx, "srch/a"); return err },
		func() error { return c.BindAttrs(ctx, "srch/a/z", "oz", hit) },
		func() error { return c.BindAttrs(ctx, "srch/d", "od", hit) },
		func() error { return c.BindAttrs(ctx, "srch/c", "oc", core.NewAttributes("type", "miss")) },
		func() error { return c.BindAttrs(ctx, "srch/b", "ob", hit) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
}

package gondi

import (
	"context"
	"errors"
	"testing"

	"gondi/internal/core"
	"gondi/internal/dnssrv"
	"gondi/internal/jxta"
	"gondi/internal/provider/fssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/jxtasp"
	"gondi/internal/provider/ldapsp"
	"gondi/internal/provider/memsp"
)

// The answers a row of TestProviderResolveRule expects.
const (
	continues    = "continues"    // a *core.CannotProceedError with the case's rest remaining
	notContext   = "notContext"   // core.ErrNotContext
	notFound     = "notFound"     // core.ErrNotFound
	succeeds     = "succeeds"     // no error
	notSupported = "notSupported" // core.ErrNotSupported
	findsBase    = "findsBase"    // no error and one result, the base itself
)

var resolveOps = []string{"lookup", "bind", "rebind", "unbind", "list", "getAttributes", "search", "createSubcontext"}

// resolveCase is one place a name can stop: the name, the operations
// asked there, the answer the rule gives every one of them, and the name
// a continuation leaves.
type resolveCase struct {
	name string
	ops  []string
	want string
	rest string
}

var resolveCases = map[string]resolveCase{
	"junction":   {"fed/ref/x/y", resolveOps, continues, "x/y"},
	"atjunction": {"fed/ref", []string{"list", "search"}, continues, ""},
	"leaf":       {"fed/leaf/x", resolveOps, notContext, ""},
	"nodir":      {"nodir/x", resolveOps, notFound, ""},
	"nobase":     {"nobase", []string{"list", "search"}, notFound, ""},
	"searchleaf": {"fed/leaf", []string{"search"}, findsBase, ""},
}

// TestProviderResolveRule pins the one name-resolution rule on all
// seven providers. Each holds a context fed with a junction fed/ref (a
// reference to another naming system) and a plain binding fed/leaf
// (type=hit). Every operation on a name
//   - below the junction continues there, with x/y remaining;
//   - below the binding is NotContext;
//   - below a missing intermediate is NotFound, unbind included;
//
// a List or Search of the junction itself continues there with nothing
// remaining, one of a missing base is NotFound, and a ScopeObject search
// whose base is the binding finds it.
//
// Three providers deviate, and say so in their probe:
//   - ldapsp: every LDAP entry can hold children, so below the binding a
//     write succeeds and a read is NotFound;
//   - jinisp: intermediate contexts are implicit in a lookup service, so
//     below a missing intermediate a write succeeds;
//   - dnssp: every domain is a context, and DNS is read-only here: a
//     write continues past a junction and is otherwise NotSupported.
func TestProviderResolveRule(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	zone := dnssrv.NewZone("rsv")
	zone.Add(dnssrv.RR{Name: "fed.rsv", Type: dnssrv.TypeTXT, Txt: []string{"ctx"}})
	zone.Add(dnssrv.RR{Name: "ref.fed.rsv", Type: dnssrv.TypeTXT, Txt: []string{"hdns://" + w.nodes[1].Addr()}})
	zone.Add(dnssrv.RR{Name: "leaf.fed.rsv", Type: dnssrv.TypeTXT, Txt: []string{"hit"}})
	w.dns.AddZone(zone)
	rdv, err := jxta.NewRendezvous("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })

	reads := func(want string) map[string]string {
		return map[string]string{"lookup": want, "getAttributes": want, "list": want, "search": want}
	}
	writes := func(want string) map[string]string {
		return map[string]string{"bind": want, "rebind": want, "unbind": want, "createSubcontext": want}
	}
	join := func(ms ...map[string]string) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			for k, v := range m {
				out[k] = v
			}
		}
		return out
	}
	env := func() map[string]any { return map[string]any{core.EnvPoolID: t.Name()} }
	for _, p := range []struct {
		name    string
		open    func() (core.Context, error)
		filter  string
		seeded  bool                         // the server holds fed already
		deviate map[string]map[string]string // case -> op -> answer
	}{
		{name: "memsp", open: func() (core.Context, error) {
			return memsp.NewContext(memsp.NewTree(), nil, ""), nil
		}},
		{name: "fssp", open: func() (core.Context, error) {
			return fssp.NewContext(t.TempDir(), nil), nil
		}},
		{name: "jinisp", open: func() (core.Context, error) {
			return jinisp.Open(ctx, w.lus.Addr(), env())
		}, deviate: map[string]map[string]string{"nodir": writes(succeeds)}},
		{name: "dnssp", filter: "(TXT=hit)", seeded: true, open: func() (core.Context, error) {
			root, _, err := core.OpenURL(ctx, "dns://"+w.dns.Addr(), env())
			if err != nil {
				return nil, err
			}
			c, err := root.Lookup(ctx, "rsv")
			if err != nil {
				return nil, err
			}
			return c.(core.Context), nil
		}, deviate: map[string]map[string]string{
			"leaf":  join(reads(notFound), writes(notSupported)),
			"nodir": writes(notSupported),
		}},
		{name: "jxtasp", open: func() (core.Context, error) {
			return jxtasp.Open(ctx, rdv.Addr(), env())
		}},
		{name: "hdnssp", open: func() (core.Context, error) {
			c, _, err := core.OpenURL(ctx, "hdns://"+w.nodes[0].Addr(), env())
			return c, err
		}},
		{name: "ldapsp", open: func() (core.Context, error) {
			return ldapsp.Open(ctx, w.ldap.Addr(), "dc=dcl", env())
		}, deviate: map[string]map[string]string{"leaf": join(reads(notFound), writes(succeeds))}},
	} {
		t.Run(p.name, func(t *testing.T) {
			c, err := p.open()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			dc := c.(core.DirContext)
			if !p.seeded {
				seedResolve(t, dc)
			}
			if p.filter == "" {
				p.filter = "(type=hit)"
			}
			for _, cn := range []string{"junction", "atjunction", "leaf", "nodir", "nobase", "searchleaf"} {
				rc := resolveCases[cn]
				for _, op := range rc.ops {
					want := rc.want
					if d, ok := p.deviate[cn][op]; ok {
						want = d
					}
					t.Run(cn+"/"+op, func(t *testing.T) {
						n, err := runResolveOp(ctx, dc, op, rc.name, p.filter, cn == "searchleaf")
						if got := resolveAnswer(err, n, rc.rest); got != want {
							t.Errorf("%s %q = %s (%v), want %s", op, rc.name, got, err, want)
						}
					})
				}
			}
		})
	}
}

// seedResolve binds what TestProviderResolveRule resolves through.
func seedResolve(t *testing.T, c core.DirContext) {
	ctx := context.Background()
	t.Helper()
	if _, err := c.CreateSubcontext(ctx, "fed"); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(ctx, "fed/ref", core.NewContextReference("mem://resolve-far")); err != nil {
		t.Fatal(err)
	}
	if err := c.BindAttrs(ctx, "fed/leaf", "v", core.NewAttributes("type", "hit")); err != nil {
		t.Fatal(err)
	}
}

// runResolveOp runs op on name and, when a write succeeds, undoes it so
// the next row sees the seeded state. It returns a search's result count.
func runResolveOp(ctx context.Context, dc core.DirContext, op, name, filter string, objectScope bool) (int, error) {
	var err error
	switch op {
	case "lookup":
		_, err = dc.Lookup(ctx, name)
	case "bind", "rebind":
		if op == "bind" {
			err = dc.Bind(ctx, name, "w")
		} else {
			err = dc.Rebind(ctx, name, "w")
		}
		if err == nil {
			_ = dc.Unbind(ctx, name)
		}
	case "unbind":
		err = dc.Unbind(ctx, name)
	case "list":
		_, err = dc.List(ctx, name)
	case "getAttributes":
		_, err = dc.GetAttributes(ctx, name)
	case "search":
		controls := &core.SearchControls{Scope: core.ScopeSubtree}
		if objectScope {
			controls.Scope = core.ScopeObject
		}
		var res []core.SearchResult
		res, err = dc.Search(ctx, name, filter, controls)
		if err == nil && len(res) == 1 && res[0].Name == "" {
			return 1, nil
		}
	case "createSubcontext":
		if _, err = dc.CreateSubcontext(ctx, name); err == nil {
			_ = dc.DestroySubcontext(ctx, name)
		}
	}
	return 0, err
}

// resolveAnswer names the answer err (and a search's count n) gives; a
// continuation must leave rest.
func resolveAnswer(err error, n int, rest string) string {
	var cpe *core.CannotProceedError
	switch {
	case errors.As(err, &cpe):
		if cpe.Resolved != nil && cpe.RemainingName.String() == rest {
			return continues
		}
		return "continues with " + cpe.RemainingName.String() + " remaining"
	case errors.Is(err, core.ErrNotContext):
		return notContext
	case errors.Is(err, core.ErrNotFound):
		return notFound
	case errors.Is(err, core.ErrNotSupported):
		return notSupported
	case err != nil:
		return "fails"
	case n == 1:
		return findsBase
	}
	return succeeds
}

// TestFederatedUnbindIsNotLost unbinds through a junction end to end:
// ldap's fedj is a reference to hdns's tgt, so unbinding fedj/victim
// through the initial context removes tgt/victim from HDNS.
func TestFederatedUnbindIsNotLost(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	ic, err := core.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ic.Close() })
	hdnsURL := "hdns://" + w.nodes[0].Addr()
	ldapURL := "ldap://" + w.ldap.Addr() + "/dc=dcl"
	if _, err := ic.CreateSubcontext(ctx, hdnsURL+"/tgt"); err != nil {
		t.Fatal(err)
	}
	if err := ic.Bind(ctx, hdnsURL+"/tgt/victim", "v"); err != nil {
		t.Fatal(err)
	}
	if err := ic.Bind(ctx, ldapURL+"/fedj", core.NewContextReference(hdnsURL+"/tgt")); err != nil {
		t.Fatal(err)
	}
	if err := ic.Unbind(ctx, ldapURL+"/fedj/victim"); err != nil {
		t.Fatalf("federated unbind: %v", err)
	}
	if obj, err := ic.Lookup(ctx, hdnsURL+"/tgt/victim"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("after the federated unbind, tgt/victim = %v, %v; want ErrNotFound", obj, err)
	}
}

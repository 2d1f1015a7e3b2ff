package gondi

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gondi/internal/core"
	"gondi/internal/provider/memsp"
)

// rootRuleObj is bound through the state factory TestJunctionPathRule
// registers; every other object is declined.
type rootRuleObj struct{}

func init() {
	core.RegisterStateFactory(func(obj any, name core.Name, _ map[string]any) (any, *core.Attributes, error) {
		if _, ok := obj.(rootRuleObj); ok {
			return "state at " + name.String(), nil, nil
		}
		return nil, nil, nil
	})
}

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// answer names an operation's outcome for comparison across rows.
func answer(v any, err error) string {
	switch {
	case errors.Is(err, core.ErrNotContext):
		return "ErrNotContext"
	case errors.Is(err, core.ErrNotFound):
		return "ErrNotFound"
	case err != nil:
		return "error: " + err.Error()
	}
	return fmt.Sprint(v)
}

// TestJunctionPathRule: every name resolves by one rule. A junction whose
// URL has a path continues at the held root of its scheme://authority
// with the path prefixed onto the remaining name, so what lies at the
// path answers as it would to the URL itself: a context succeeds, a plain
// binding is ErrNotContext, a missing name ErrNotFound, cached or not; a
// looked-up reference's path is followed across junctions the same way. A
// plain name is the same rule at EnvProviderURL: Rename, a Bind through a
// state factory and LookupMany answer as their URL forms do.
func TestJunctionPathRule(t *testing.T) {
	registerAll()
	memsp.ResetSpaces()
	ctx := context.Background()
	const target, source = "mem://jpr-t", "mem://jpr-s"
	setup, err := core.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if _, err := setup.CreateSubcontext(ctx, target+"/dir"); err != nil {
		t.Fatal(err)
	}
	noErr(t, setup.Bind(ctx, target+"/dir/x", "dx"))
	noErr(t, setup.Bind(ctx, target+"/plain", "p"))
	for _, at := range []string{"dir", "plain", "missing"} {
		noErr(t, setup.Bind(ctx, source+"/j"+at, core.NewContextReference(target+"/"+at)))
	}
	// A reference whose URL path itself crosses the jdir junction.
	noErr(t, setup.Bind(ctx, source+"/jchain", core.NewContextReference(source+"/jdir/x")))

	for _, mode := range []struct {
		name string
		opts []core.Option
	}{
		{"uncached", nil},
		{"cached", []core.Option{core.WithCache(core.CacheConfig{})}},
	} {
		ic, err := core.Open(ctx, append(mode.opts, core.WithProviderURL(target+"/dir"))...)
		if err != nil {
			t.Fatal(err)
		}
		defer ic.Close()

		for _, row := range []struct {
			at, want string
		}{
			{"dir", "dx"},
			{"plain", "ErrNotContext"},
			{"missing", "ErrNotFound"},
		} {
			t.Run(mode.name+"/lookup/"+row.at, func(t *testing.T) {
				if got := answer(ic.Lookup(ctx, source+"/j"+row.at+"/x")); got != row.want {
					t.Errorf("lookup below the junction = %s, want %s", got, row.want)
				}
			})
			t.Run(mode.name+"/bind/"+row.at, func(t *testing.T) {
				want := row.want
				if want == "dx" {
					want = "<nil>"
				}
				err := ic.Bind(ctx, source+"/j"+row.at+"/b-"+mode.name, "v")
				if got := answer(nil, err); got != want {
					t.Errorf("bind below the junction = %s, want %s", got, want)
				}
			})
		}

		t.Run(mode.name+"/lookup/reference-across-junction", func(t *testing.T) {
			if got := answer(ic.Lookup(ctx, source+"/jchain")); got != "dx" {
				t.Errorf("lookup of a reference whose path crosses a junction = %s, want dx", got)
			}
		})

		// Plain names under EnvProviderURL's path, each beside its URL form.
		url := func(name string) string { return target + "/dir/" + name }
		t.Run(mode.name+"/plain/rename", func(t *testing.T) {
			for _, names := range [][2]string{
				{"r-" + mode.name, "r2-" + mode.name},
				{url("u-" + mode.name), url("u2-" + mode.name)},
			} {
				noErr(t, ic.Bind(ctx, names[0], "moved"))
				noErr(t, ic.Rename(ctx, names[0], names[1]))
			}
			for _, name := range []string{url("r2-" + mode.name), url("u2-" + mode.name)} {
				if got := answer(ic.Lookup(ctx, name)); got != "moved" {
					t.Errorf("%s after rename = %s, want moved", name, got)
				}
			}
			for _, name := range []string{url("r-" + mode.name), url("u-" + mode.name)} {
				if got := answer(ic.Lookup(ctx, name)); got != "ErrNotFound" {
					t.Errorf("%s after rename = %s, want ErrNotFound", name, got)
				}
			}
		})
		t.Run(mode.name+"/plain/bind-state-factory", func(t *testing.T) {
			noErr(t, ic.Bind(ctx, "sf-"+mode.name, rootRuleObj{}))
			noErr(t, ic.Bind(ctx, url("sfu-"+mode.name), rootRuleObj{}))
			for name, want := range map[string]string{
				url("sf-" + mode.name):  "state at dir/sf-" + mode.name,
				url("sfu-" + mode.name): "state at dir/sfu-" + mode.name,
			} {
				if got := answer(ic.Lookup(ctx, name)); got != want {
					t.Errorf("%s = %s, want %s", name, got, want)
				}
			}
		})
		t.Run(mode.name+"/plain/lookupMany", func(t *testing.T) {
			plain, err := ic.LookupMany(ctx, []string{"x", "nope"})
			if err != nil {
				t.Fatal(err)
			}
			urls, err := ic.LookupMany(ctx, []string{url("x"), url("nope")})
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range []string{"dx", "ErrNotFound"} {
				p, u := answer(plain[i].Value, plain[i].Err), answer(urls[i].Value, urls[i].Err)
				if p != want || u != want {
					t.Errorf("item %d: plain %s, URL %s; want %s", i, p, u, want)
				}
			}
		})
	}
}

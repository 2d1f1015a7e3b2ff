package gondi

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gondi/internal/connpool"
	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/jxta"
	"gondi/internal/ldapsrv"
	"gondi/internal/provider/jxtasp"
)

// An InitialContext owns the provider roots it opens: open, one
// operation and Close, repeated, leaves no connection, pooled entry or
// goroutine behind on any wire provider, with the cache on or off (its
// watches and rewatch loops included). A context a caller looks up — a
// context reference, or the root URL itself — never owns the root, so
// closing it leaves the InitialContext's next operation on that authority
// working.
func TestInitialContextLifecycle(t *testing.T) {
	registerAll()
	jxtasp.Register()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, sys := range []struct {
		scheme string
		start  func(t *testing.T) (authority, base string)
	}{
		{"hdns", func(t *testing.T) (string, string) {
			n, err := hdns.NewNode(hdns.NodeConfig{
				Group: "lc-" + t.Name(), Transport: jgroups.NewFabric().Endpoint("lc-n0"), ListenAddr: "127.0.0.1:0",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			return n.Addr(), ""
		}},
		{"jini", func(t *testing.T) (string, string) {
			lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lus.Close() })
			return lus.Addr(), ""
		}},
		{"ldap", func(t *testing.T) (string, string) {
			srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=lc"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return srv.Addr(), "dc=lc/"
		}},
		{"jxta", func(t *testing.T) (string, string) {
			rdv, err := jxta.NewRendezvous("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rdv.Close() })
			return rdv.Addr(), ""
		}},
	} {
		t.Run(sys.scheme, func(t *testing.T) {
			authority, base := sys.start(t)
			root := sys.scheme + "://" + authority
			prefix := root + "/" + base
			seed, err := core.Open(ctx, core.WithPoolID(t.Name()+"-seed"))
			if err != nil {
				t.Fatal(err)
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(seed.Bind(ctx, prefix+"k", "v"))
			must(seed.Bind(ctx, prefix+"self", core.NewContextReference(root)))
			must(seed.Close())

			for _, mode := range []struct {
				name string
				opts []core.Option
			}{
				{"uncached", nil},
				{"cached", []core.Option{core.WithCache(core.CacheConfig{})}},
			} {
				open := func(pool string) *core.InitialContext {
					t.Helper()
					ic, err := core.Open(ctx, append(mode.opts, core.WithPoolID(pool))...)
					if err != nil {
						t.Fatal(err)
					}
					return ic
				}
				goroutines, held := settledGoroutines(), connpool.Held()
				for i := 0; i < 50; i++ {
					ic := open(fmt.Sprintf("%s-%s-%d", t.Name(), mode.name, i))
					if v, err := ic.Lookup(ctx, prefix+"k"); err != nil || v != "v" {
						t.Fatalf("%s cycle %d: lookup = %v, %v", mode.name, i, v, err)
					}
					must(ic.Close())
				}
				if n := connpool.Held(); n != held {
					t.Errorf("%s: 50 open/lookup/close cycles left %d pooled connections held (%d before)", mode.name, n, held)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > goroutines {
					t.Errorf("%s: 50 open/lookup/close cycles left %d goroutines, %d before", mode.name, n, goroutines)
				}

				ic := open(t.Name() + "-" + mode.name + "-borrow")
				defer ic.Close()
				for _, name := range []string{prefix + "self", root + "/"} {
					obj, err := ic.Lookup(ctx, name)
					if err != nil {
						t.Fatalf("%s: lookup %s: %v", mode.name, name, err)
					}
					c, ok := obj.(core.Context)
					if !ok {
						t.Fatalf("%s: lookup %s = %T, want a context", mode.name, name, obj)
					}
					must(c.Close())
					if v, err := ic.Lookup(ctx, prefix+"k"); err != nil || v != "v" {
						t.Fatalf("%s: after closing the context %s names: lookup = %v, %v", mode.name, name, v, err)
					}
				}
			}
		})
	}
}

// settledGoroutines waits for the goroutine count to stop falling (the
// setup's own connections winding down) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

package hdnssp

import (
	"context"
	"errors"
	"testing"

	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/jxta"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/jxtasp"
)

// semantic asserts err is the core error want and not a
// *core.CommunicationError: an answer from a live server must never read
// as an outage to the cache's serve-stale.
func semantic(t *testing.T, what string, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("%s: err = %v, want %v", what, err, want)
	}
	if errors.As(err, new(*core.CommunicationError)) {
		t.Fatalf("%s: %v is a *core.CommunicationError", what, err)
	}
}

// An hdns permission refusal is core.ErrNoPermission, as in ldapsp.
func TestPermissionRefusalIsNoPermission(t *testing.T) {
	ctx := context.Background()
	n, err := hdns.NewNode(hdns.NodeConfig{
		Group:      "denied",
		Transport:  jgroups.NewFabric().Endpoint("n1"),
		Stack:      jgroups.DefaultConfig(),
		ListenAddr: "127.0.0.1:0",
		Secret:     "s3cret",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	c := openCtx(t, n, nil) // no hdns.secret: reads only
	semantic(t, "anonymous bind", c.Bind(ctx, "x", "v"), core.ErrNoPermission)
	_, err = Open(ctx, n.Addr(), map[string]any{EnvSecret: "wrong"})
	semantic(t, "wrong secret", err, core.ErrNoPermission)
	good := openCtx(t, n, map[string]any{EnvSecret: "s3cret"})
	if err := good.Bind(ctx, "x", "v"); err != nil {
		t.Fatalf("bind with the secret: %v", err)
	}
}

// The same rule holds for the Jini bind proxy and the JXTA rendezvous:
// an already-bound answer crosses the wire as a status and surfaces as
// core.ErrAlreadyBound.
func TestAlreadyBoundAcrossProviders(t *testing.T) {
	ctx := context.Background()
	lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lus.Close() })
	proxy, err := jini.NewBindProxy(lus.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	rdv, err := jxta.NewRendezvous("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })

	jc, err := jinisp.Open(ctx, lus.Addr(), map[string]any{
		jinisp.EnvBind: "proxy", jinisp.EnvProxyAddr: proxy.Addr(), core.EnvPoolID: t.Name(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jc.Close() })
	xc, err := jxtasp.Open(ctx, rdv.Addr(), map[string]any{core.EnvPoolID: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { xc.Close() })

	for what, c := range map[string]core.Context{"jinisp": jc, "jxtasp": xc} {
		if err := c.Bind(ctx, "svc", "v1"); err != nil {
			t.Fatalf("%s: first bind: %v", what, err)
		}
		semantic(t, what+" duplicate bind", c.Bind(ctx, "svc", "v2"), core.ErrAlreadyBound)
	}
}

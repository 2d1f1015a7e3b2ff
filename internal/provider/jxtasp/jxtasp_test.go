package jxtasp

import (
	"context"
	"errors"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/jxta"
	"gondi/internal/ldapsrv"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/ldapsp"

	jinilus "gondi/internal/jini"
)

func newRendezvous(t *testing.T) *jxta.Rendezvous {
	t.Helper()
	r, err := jxta.NewRendezvous("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func openCtx(t *testing.T, r *jxta.Rendezvous) *Context {
	ctx := context.Background()
	t.Helper()
	pc, err := Open(ctx, r.Addr(), map[string]any{core.EnvPoolID: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc
}

func TestBasicOps(t *testing.T) {
	ctx := context.Background()
	r := newRendezvous(t)
	c := openCtx(t, r)
	if err := c.BindAttrs(ctx, "pipe", "endpoint-1", core.NewAttributes("type", "pipe")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "pipe")
	if err != nil || got != "endpoint-1" {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if err := c.Bind(ctx, "pipe", "x"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup bind: %v", err)
	}
	if err := c.Rebind(ctx, "pipe", "endpoint-2"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Lookup(ctx, "pipe"); got != "endpoint-2" {
		t.Errorf("rebind = %v", got)
	}
	// Rebind preserved attributes.
	attrs, _ := c.GetAttributes(ctx, "pipe")
	if attrs.GetFirst("type") != "pipe" {
		t.Errorf("attrs dropped: %v", attrs)
	}
	if err := c.Unbind(ctx, "pipe"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "pipe"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("after unbind: %v", err)
	}
}

func TestGroupsAsContexts(t *testing.T) {
	ctx := context.Background()
	r := newRendezvous(t)
	c := openCtx(t, r)
	sub, err := c.CreateSubcontext(ctx, "jxtaGroup")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Bind(ctx, "myObject", "the-data"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "jxtaGroup/myObject")
	if err != nil || got != "the-data" {
		t.Fatalf("composite = %v, %v", got, err)
	}
	pairs, err := c.List(ctx, "")
	if err != nil || len(pairs) != 1 || pairs[0].Class != core.ContextReferenceClass {
		t.Fatalf("list = %+v, %v", pairs, err)
	}
	bindings, err := c.ListBindings(ctx, "jxtaGroup")
	if err != nil || len(bindings) != 1 || bindings[0].Object != "the-data" {
		t.Fatalf("group bindings = %+v, %v", bindings, err)
	}
	if err := c.DestroySubcontext(ctx, "jxtaGroup"); !errors.Is(err, core.ErrContextNotEmpty) {
		t.Errorf("destroy non-empty: %v", err)
	}
	if err := sub.Unbind(ctx, "myObject"); err != nil {
		t.Fatal(err)
	}
	if err := c.DestroySubcontext(ctx, "jxtaGroup"); err != nil {
		t.Fatal(err)
	}
}

// DestroySubcontext below a missing group is NotFound, and of a missing
// group succeeds: the rendezvous answers any missing group with
// not-found, and the name-resolution rule tells a missing intermediate
// from a missing terminal name.
func TestDestroySubcontextOfMissingGroups(t *testing.T) {
	ctx := context.Background()
	c := openCtx(t, newRendezvous(t))
	if err := c.DestroySubcontext(ctx, "nodir/x"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("destroy below a missing group: %v, want not found", err)
	}
	if _, err := c.CreateSubcontext(ctx, "dir"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dir/x", "nodir"} {
		if err := c.DestroySubcontext(ctx, name); err != nil {
			t.Errorf("destroy missing %s: %v, want success", name, err)
		}
	}
}

func TestSearchScopes(t *testing.T) {
	ctx := context.Background()
	r := newRendezvous(t)
	c := openCtx(t, r)
	if _, err := c.CreateSubcontext(ctx, "sensors"); err != nil {
		t.Fatal(err)
	}
	must(t, c.BindAttrs(ctx, "gw", "g", core.NewAttributes("kind", "gateway")))
	must(t, c.BindAttrs(ctx, "sensors/s1", "t1", core.NewAttributes("kind", "temp", "floor", "1")))
	must(t, c.BindAttrs(ctx, "sensors/s2", "t2", core.NewAttributes("kind", "temp", "floor", "2")))

	res, err := c.Search(ctx, "", "(kind=temp)", &core.SearchControls{Scope: core.ScopeSubtree})
	if err != nil || len(res) != 2 {
		t.Fatalf("subtree = %+v, %v", res, err)
	}
	res, err = c.Search(ctx, "", "(kind=*)", &core.SearchControls{Scope: core.ScopeOneLevel})
	if err != nil || len(res) != 1 || res[0].Name != "gw" {
		t.Fatalf("one-level = %+v, %v", res, err)
	}
	res, err = c.Search(ctx, "sensors", "(floor>=2)", &core.SearchControls{Scope: core.ScopeSubtree, ReturnObject: true})
	if err != nil || len(res) != 1 || res[0].Object != "t2" {
		t.Fatalf("attr search = %+v, %v", res, err)
	}
}

func TestLeaseRenewalLifecycle(t *testing.T) {
	ctx := context.Background()
	r := newRendezvous(t)
	c, err := Open(ctx, r.Addr(), map[string]any{EnvLeaseMs: 400, core.EnvPoolID: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	must(t, c.Bind(ctx, "leased", "v"))
	time.Sleep(900 * time.Millisecond)
	if _, err := c.Lookup(ctx, "leased"); err != nil {
		t.Fatalf("lease lapsed despite renewal: %v", err)
	}
	observer := openCtx(t, r)
	must(t, c.Close())
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := observer.Lookup(ctx, "leased")
		if errors.Is(err, core.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("advertisement never expired after provider close")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// The paper's §6 federation URL, end to end:
// ldap://host/n=jiniServer/jxtaGroup/myObject — LDAP resolves a Jini
// reference, Jini resolves a JXTA reference, JXTA serves the object.
func TestPaperThreeSystemFederationURL(t *testing.T) {
	ctx := context.Background()
	Register()
	jinisp.Register()
	ldapsp.Register()

	rdv := newRendezvous(t)
	lus, err := jinilus.NewLUS(jinilus.LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lus.Close() })
	ldapSrv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=domain"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ldapSrv.Close() })

	ic, err := core.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ic.Close() })

	// JXTA: the target object inside a peer group.
	if _, err := ic.CreateSubcontext(ctx, "jxta://"+rdv.Addr()+"/jxtaGroup"); err != nil {
		t.Fatal(err)
	}
	must(t, ic.Bind(ctx, "jxta://"+rdv.Addr()+"/jxtaGroup/myObject", "the-grid-object"))
	// Jini: a reference to the JXTA rendezvous root.
	must(t, ic.Bind(ctx, "jini://"+lus.Addr()+"/jxtaGroup",
		core.NewContextReference("jxta://"+rdv.Addr()+"/jxtaGroup")))
	// LDAP: a reference to the Jini registry.
	must(t, ic.Bind(ctx, "ldap://"+ldapSrv.Addr()+"/dc=domain/n=jiniServer",
		core.NewContextReference("jini://"+lus.Addr())))

	// The paper's composite URL.
	url := "ldap://" + ldapSrv.Addr() + "/dc=domain/n=jiniServer/jxtaGroup/myObject"
	obj, err := ic.Lookup(ctx, url)
	if err != nil {
		t.Fatalf("federated lookup: %v", err)
	}
	if obj != "the-grid-object" {
		t.Fatalf("got %v", obj)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Closing one root context twice releases one reference, not two: the
// other holder of the pooled peer keeps working.
func TestDoubleCloseKeepsSharedConnection(t *testing.T) {
	ctx := context.Background()
	r := newRendezvous(t)
	a := openCtx(t, r)
	b := openCtx(t, r)
	must(t, b.Bind(ctx, "x", "v"))
	must(t, a.Close())
	must(t, a.Close())
	if got, err := b.Lookup(ctx, "x"); err != nil || got != "v" {
		t.Fatalf("other holder after a double close: %v, %v", got, err)
	}
}

// The last holder of a dead peer closing it must not evict the live
// connection that replaced it.
func TestDeadEntryDoesNotEvictReplacement(t *testing.T) {
	r := newRendezvous(t)
	a := openCtx(t, r)
	a.sh.peer.Close()
	b := openCtx(t, r)
	if b.sh == a.sh {
		t.Fatal("a dead connection was handed out again")
	}
	must(t, a.Close())
	if c := openCtx(t, r); c.sh != b.sh {
		t.Fatal("the dead entry's last close evicted its replacement: a second connection was dialled")
	}
}

package ldapsp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gondi/internal/core"
	"gondi/internal/ldapsrv"
	"gondi/internal/obs"
)

func newServer(t *testing.T) *ldapsrv.Server {
	t.Helper()
	s, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=mathcs,dc=emory,dc=edu"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func openCtx(t *testing.T, s *ldapsrv.Server) *Context {
	ctx := context.Background()
	t.Helper()
	c, err := Open(ctx, s.Addr(), "dc=mathcs,dc=emory,dc=edu", map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBindLookupUnbind(t *testing.T) {
	ctx := context.Background()
	s := newServer(t)
	c := openCtx(t, s)
	if err := c.Bind(ctx, "mokey", "object-data"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(ctx, "mokey")
	if err != nil || got != "object-data" {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	// Atomic bind: LDAP Add fails on existing entries.
	if err := c.Bind(ctx, "mokey", "x"); !errors.Is(err, core.ErrAlreadyBound) {
		t.Errorf("dup bind: %v", err)
	}
	if err := c.Rebind(ctx, "mokey", 123); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Lookup(ctx, "mokey"); got != 123 {
		t.Errorf("rebind = %v", got)
	}
	if err := c.Unbind(ctx, "mokey"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "mokey"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("after unbind: %v", err)
	}
	if err := c.Unbind(ctx, "mokey"); err != nil {
		t.Errorf("unbind absent: %v", err)
	}
}

func TestSubtree(t *testing.T) {
	ctx := context.Background()
	s := newServer(t)
	c := openCtx(t, s)
	sub, err := c.CreateSubcontext(ctx, "ou=people")
	if err != nil {
		t.Fatal(err)
	}
	must(t, sub.Bind(ctx, "alice", "alice-rec"))
	// Composite traversal through the parent.
	got, err := c.Lookup(ctx, "ou=people/alice")
	if err != nil || got != "alice-rec" {
		t.Fatalf("composite = %v, %v", got, err)
	}
	// List.
	pairs, err := c.List(ctx, "")
	if err != nil || len(pairs) != 1 || pairs[0].Name != "people" {
		t.Fatalf("list root = %+v, %v", pairs, err)
	}
	bindings, err := c.ListBindings(ctx, "ou=people")
	if err != nil || len(bindings) != 1 || bindings[0].Object != "alice-rec" {
		t.Fatalf("people = %+v, %v", bindings, err)
	}
	// Orphan binds fail.
	if err := c.Bind(ctx, "ou=ghost/bob", 1); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("orphan bind: %v", err)
	}
}

func TestAttributesAndSearch(t *testing.T) {
	ctx := context.Background()
	s := newServer(t)
	c := openCtx(t, s)
	must(t, c.BindAttrs(ctx, "host1", "10.0.0.1",
		core.NewAttributes("type", "compute", "ram", "64")))
	must(t, c.BindAttrs(ctx, "host2", "10.0.0.2",
		core.NewAttributes("type", "compute", "ram", "128")))

	attrs, err := c.GetAttributes(ctx, "host1")
	if err != nil {
		t.Fatal(err)
	}
	if attrs.GetFirst("ram") != "64" || attrs.GetFirst("cn") != "host1" {
		t.Errorf("attrs = %v", attrs)
	}
	// The serialized payload must not leak into attributes.
	if _, ok := attrs.Get(objDataAttr); ok {
		t.Error("javaSerializedData leaked")
	}
	res, err := c.Search(ctx, "", "(&(type=compute)(ram>=100))", &core.SearchControls{Scope: core.ScopeSubtree, ReturnObject: true})
	if err != nil || len(res) != 1 || res[0].Name != "host2" || res[0].Object != "10.0.0.2" {
		t.Fatalf("search = %+v, %v", res, err)
	}
	must(t, c.ModifyAttributes(ctx, "host1", []core.AttributeMod{
		{Op: core.ModReplace, Attr: core.Attribute{ID: "ram", Values: []string{"256"}}},
	}))
	attrs, _ = c.GetAttributes(ctx, "host1", "ram")
	if attrs.GetFirst("ram") != "256" {
		t.Errorf("after modify: %v", attrs)
	}
	// Substring search maps to LDAP substring filters server-side.
	res, err = c.Search(ctx, "", "(cn=host*)", &core.SearchControls{Scope: core.ScopeSubtree})
	if err != nil || len(res) != 2 {
		t.Fatalf("substring = %+v, %v", res, err)
	}
	// Count limit surfaces as LimitExceededError with partial results.
	res, err = c.Search(ctx, "", "(cn=host*)", &core.SearchControls{Scope: core.ScopeSubtree, CountLimit: 1})
	var lim *core.LimitExceededError
	if !errors.As(err, &lim) || len(res) != 1 {
		t.Fatalf("limit = %+v, %v", res, err)
	}
}

func TestRename(t *testing.T) {
	ctx := context.Background()
	s := newServer(t)
	c := openCtx(t, s)
	must(t, c.BindAttrs(ctx, "old", "v", core.NewAttributes("k", "1")))
	// Sibling rename uses ModifyDN.
	must(t, c.Rename(ctx, "old", "new"))
	if _, err := c.Lookup(ctx, "old"); !errors.Is(err, core.ErrNotFound) {
		t.Error("old survives")
	}
	got, err := c.Lookup(ctx, "new")
	if err != nil || got != "v" {
		t.Fatalf("new = %v, %v", got, err)
	}
	// Cross-context rename falls back to bind+unbind.
	if _, err := c.CreateSubcontext(ctx, "ou=arch"); err != nil {
		t.Fatal(err)
	}
	must(t, c.Rename(ctx, "new", "ou=arch/moved"))
	if got, _ := c.Lookup(ctx, "ou=arch/moved"); got != "v" {
		t.Errorf("moved = %v", got)
	}
}

func TestRebindPreservesAttrs(t *testing.T) {
	ctx := context.Background()
	s := newServer(t)
	c := openCtx(t, s)
	must(t, c.BindAttrs(ctx, "e", "v1", core.NewAttributes("color", "red")))
	must(t, c.Rebind(ctx, "e", "v2"))
	attrs, err := c.GetAttributes(ctx, "e", "color")
	if err != nil || attrs.GetFirst("color") != "red" {
		t.Fatalf("attrs = %v, %v", attrs, err)
	}
	if got, _ := c.Lookup(ctx, "e"); got != "v2" {
		t.Errorf("value = %v", got)
	}
}

func TestFederationBoundary(t *testing.T) {
	ctx := context.Background()
	s := newServer(t)
	c := openCtx(t, s)
	must(t, c.Bind(ctx, "n=jiniServer", core.NewContextReference("jini://host1:4160")))
	_, err := c.Lookup(ctx, "n=jiniServer/jxtaGroup/myObject")
	var cpe *core.CannotProceedError
	if !errors.As(err, &cpe) {
		t.Fatalf("want continuation, got %v", err)
	}
	if cpe.RemainingName.String() != "jxtaGroup/myObject" {
		t.Errorf("remaining = %q", cpe.RemainingName.String())
	}
}

func TestProviderRegistration(t *testing.T) {
	ctx := context.Background()
	Register()
	s := newServer(t)
	nc, rest, err := core.OpenURL(ctx,
		fmt.Sprintf("ldap://%s/dc=mathcs,dc=emory,dc=edu/ou=people/alice", s.Addr()), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if rest.String() != "ou=people/alice" {
		t.Errorf("rest = %q", rest.String())
	}
	lc := obs.Uninstrument(nc).(*Context)
	if got, _ := lc.NameInNamespace(); got != "dc=mathcs,dc=emory,dc=edu" {
		t.Errorf("NameInNamespace = %q", got)
	}
}

func TestAuthEnv(t *testing.T) {
	ctx := context.Background()
	srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{
		BaseDN: "dc=x", RootDN: "cn=admin,dc=x", RootPassword: "pw",
		RequireAuthForWrite: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Anonymous: writes denied.
	anon, err := Open(ctx, srv.Addr(), "dc=x", map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if err := anon.Bind(ctx, "a", 1); !errors.Is(err, core.ErrNoPermission) {
		t.Errorf("anon bind: %v", err)
	}
	// Authenticated via environment.
	adm, err := Open(ctx, srv.Addr(), "dc=x", map[string]any{
		EnvPrincipal: "cn=admin,dc=x", EnvCredentials: "pw",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	if err := adm.Bind(ctx, "a", 1); err != nil {
		t.Fatal(err)
	}
	// Bad credentials fail at Open.
	if _, err := Open(ctx, srv.Addr(), "dc=x", map[string]any{
		EnvPrincipal: "cn=admin,dc=x", EnvCredentials: "wrong",
	}); err == nil {
		t.Error("bad credentials accepted")
	}
}

func TestDNMapping(t *testing.T) {
	sh := &shared{baseDN: ldapsrv.MustParseDN("dc=emory,dc=edu")}
	c := &Context{sh: sh}
	if got := c.dnFor(core.MustParseName("ou=people/alice")); got != "cn=alice,ou=people,dc=emory,dc=edu" {
		t.Errorf("dnFor = %q", got)
	}
	if got := c.dnFor(core.Name{}); got != "dc=emory,dc=edu" {
		t.Errorf("dnFor empty = %q", got)
	}
	rel := relName(ldapsrv.MustParseDN("cn=alice,ou=people,dc=emory,dc=edu"), sh.baseDN)
	if rel.String() != "people/alice" {
		t.Errorf("relName = %q", rel.String())
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRebindOfOneName: rebind is delete-then-add, so rebinders of
// one name race into the add's entryAlreadyExists. A lost race is redone,
// not reported: every rebind succeeds and one entry remains.
func TestConcurrentRebindOfOneName(t *testing.T) {
	const clients, rounds = 8, 20
	ctx := context.Background()
	s := newServer(t)
	ctxs := make([]*Context, clients)
	for i := range ctxs {
		// Own pool, own connection: a shared one would serialize them.
		c, err := Open(ctx, s.Addr(), "dc=mathcs,dc=emory,dc=edu", map[string]any{core.EnvPoolID: fmt.Sprintf("rebinder-%d", i)})
		must(t, err)
		defer c.Close()
		ctxs[i] = c
	}
	attrs := core.NewAttributes("type", "race")
	// Every rebinder rebinds once per round and the round is awaited, so
	// one rebind loses at most clients-1 races: below rebindAttempts.
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		errs := make(chan error, clients)
		for i, c := range ctxs {
			go func(i int, c *Context) {
				<-start
				errs <- c.RebindAttrs(ctx, "shared", i, attrs)
			}(i, c)
		}
		close(start)
		for range ctxs {
			if err := <-errs; err != nil {
				t.Errorf("round %d: rebind: %v", round, err)
			}
		}
	}
	got, err := ctxs[0].Lookup(ctx, "shared")
	if v, ok := got.(int); err != nil || !ok || v < 0 || v >= clients {
		t.Errorf("lookup after the rebinds = %v, %v", got, err)
	}
	if n := s.DIT().Len(); n != 2 {
		t.Errorf("%d entries in the directory, want the base and the one name", n)
	}
}

var lookupSink any

// BenchmarkLDAPSPLookup is the ldapsp rung of the layer ladder: one Lookup
// (a base-object search) in a directory of 1 100 entries, over loopback.
func BenchmarkLDAPSPLookup(b *testing.B) {
	ctx := context.Background()
	s, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Open(ctx, s.Addr(), "dc=bench", map[string]any{core.EnvPoolID: "bench-lookup"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 1100; i++ {
		if err := c.Bind(ctx, fmt.Sprintf("k%04d", i), "value"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lookupSink, err = c.Lookup(ctx, "k0550"); err != nil {
			b.Fatal(err)
		}
	}
}

// Closing one root context twice releases one reference, not two: the
// other holder of the pooled connection keeps working.
func TestDoubleCloseKeepsSharedConnection(t *testing.T) {
	ctx := context.Background()
	s := newServer(t)
	a := openCtx(t, s)
	b := openCtx(t, s)
	must(t, b.Bind(ctx, "x", "v"))
	must(t, a.Close())
	must(t, a.Close())
	if got, err := b.Lookup(ctx, "x"); err != nil || got != "v" {
		t.Fatalf("other holder after a double close: %v, %v", got, err)
	}
}

// The last holder of a dead connection closing it must not evict the live
// connection that replaced it.
func TestDeadEntryDoesNotEvictReplacement(t *testing.T) {
	s := newServer(t)
	a := openCtx(t, s)
	a.sh.conn.Close()
	b := openCtx(t, s)
	if b.sh == a.sh {
		t.Fatal("a dead connection was handed out again")
	}
	must(t, a.Close())
	if c := openCtx(t, s); c.sh != b.sh {
		t.Fatal("the dead entry's last close evicted its replacement: a second connection was dialled")
	}
}

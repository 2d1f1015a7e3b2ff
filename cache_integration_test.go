package gondi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/fault"
	"gondi/internal/ldapsrv"
)

// cachedLDAPBehindProxy starts an LDAP server behind a fault.Proxy and
// opens a cached InitialContext on it. It returns the context, the proxy
// and the URL prefix of the server's base DN as the proxy exposes it.
func cachedLDAPBehindProxy(t *testing.T, cfg core.CacheConfig) (*core.InitialContext, *fault.Proxy, string) {
	t.Helper()
	registerAll()
	srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: "dc=cp"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	proxy, err := fault.NewProxy(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		proxy.Close()
		// Breakers are process-wide and keyed by address; a later run
		// may be handed the same ephemeral port.
		breaker.For(proxy.Addr()).Reset()
	})
	ic, err := core.Open(context.Background(), core.WithCache(cfg), core.WithPoolID(t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ic.Close() })
	return ic, proxy, "ldap://" + proxy.Addr() + "/dc=cp/"
}

// A cached context whose LDAP link is cut and restored reconnects: the
// InitialContext opens its dead root again, and the cache wraps the new
// one instead of holding on to the dead connection.
func TestCachedContextReconnectsAfterLinkRestored(t *testing.T) {
	ctx := context.Background()
	ic, proxy, prefix := cachedLDAPBehindProxy(t, core.CacheConfig{})
	for i := 0; i < 10; i++ {
		if err := ic.Bind(ctx, fmt.Sprintf("%sk%d", prefix, i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	proxy.Cut()
	// The cut is observed once a lookup of a name not yet cached fails
	// for another reason than the name's absence.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		_, err := ic.Lookup(ctx, fmt.Sprintf("%sprobe%d", prefix, i))
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lookups kept reaching the server through a cut link: %v", err)
		}
	}
	proxy.Restore()
	breaker.For(proxy.Addr()).Reset() // the failed dials are not under test

	for i := 0; i < 10; i++ {
		if v, err := ic.Lookup(ctx, fmt.Sprintf("%sk%d", prefix, i)); err != nil || v != "v" {
			t.Errorf("lookup %d after the link was restored = %v, %v", i, v, err)
		}
	}
}

// A cached context keeps answering a name it holds while its LDAP link
// is cut, past the entry's TTL: the root cannot be opened again, and the
// expired entry is served stale instead of the transport error.
func TestCachedContextServesStaleWhileLinkCut(t *testing.T) {
	ctx := context.Background()
	ic, proxy, prefix := cachedLDAPBehindProxy(t, core.CacheConfig{TTL: 50 * time.Millisecond})
	if err := ic.Bind(ctx, prefix+"k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, err := ic.Lookup(ctx, prefix+"k"); err != nil || v != "v" {
		t.Fatalf("lookup before the cut = %v, %v", v, err)
	}

	proxy.Cut()
	time.Sleep(100 * time.Millisecond) // past the TTL
	for i := 0; i < 3; i++ {
		if v, err := ic.Lookup(ctx, prefix+"k"); err != nil || v != "v" {
			t.Fatalf("lookup %d with the link cut = %v, %v", i, v, err)
		}
	}
}

// A rename through a cached hdns context evicts only the entries of its
// two names: the rename's event names both, so the other cached lookups
// of the root stay.
func TestCachedRenameEvictsOnlyItsNames(t *testing.T) {
	w := buildWorld(t)
	evicted, kept := evictionsOfOneWrite(t, "hdns://"+w.nodes[0].Addr()+"/",
		func(ctx context.Context, ic *core.InitialContext, url string) error {
			return ic.Rename(ctx, url+"ev/k00", url+"ev/moved")
		})
	if evicted != 2 || kept != cachedKeys-1 {
		t.Errorf("a rename and one sentinel rebind evicted %d entries and kept %d of %d cached; want 2 and %d",
			evicted, kept, cachedKeys-1, cachedKeys-1)
	}
}

// An unbind through a cached jini context evicts only that name's
// entries: the removal event is named from the watch's ServiceID map
// instead of arriving nameless, which the cache had to read as the
// whole root.
func TestCachedJiniUnbindEvictsOnlyItsName(t *testing.T) {
	w := buildWorld(t)
	evicted, kept := evictionsOfOneWrite(t, "jini://"+w.lus.Addr()+"/",
		func(ctx context.Context, ic *core.InitialContext, url string) error {
			return ic.Unbind(ctx, url+"ev/k00")
		})
	if evicted != 2 || kept != cachedKeys-1 {
		t.Errorf("an unbind and one sentinel rebind evicted %d entries and kept %d of %d cached; want 2 and %d",
			evicted, kept, cachedKeys-1, cachedKeys-1)
	}
}

// cachedKeys is how many lookups evictionsOfOneWrite caches besides its
// sentinel.
const cachedKeys = 19

// evictionsOfOneWrite caches lookups of ev/k00 … ev/k18 and ev/sentinel
// under url, applies write to ev/k00 through the cached context, then
// rebinds ev/sentinel through an uncached one and waits until the cache
// serves the new value: the sentinel's event arrives after the write's
// on the same connection, so by then the write's event has been applied
// too. It returns the evictions counted from the write on and how many
// of ev/k01 … ev/k18 are still answered from the cache.
func evictionsOfOneWrite(t *testing.T, url string, write func(context.Context, *core.InitialContext, string) error) (evicted int64, kept int) {
	t.Helper()
	ctx := context.Background()
	writer, err := core.Open(ctx, core.WithPoolID(t.Name()+"/writer"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { writer.Close() })
	c := cache.New(cache.Config{}, nil)
	ic, err := core.Open(ctx, core.WithMiddleware(c), core.WithPoolID(t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ic.Close() })

	if _, err := writer.CreateSubcontext(ctx, url+"ev"); err != nil {
		t.Fatal(err)
	}
	names := []string{"sentinel"}
	for i := 0; i < cachedKeys; i++ {
		names = append(names, fmt.Sprintf("k%02d", i))
	}
	for _, n := range names {
		if err := writer.Bind(ctx, url+"ev/"+n, "v"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		if v, err := ic.Lookup(ctx, url+"ev/"+n); err != nil || v != "v" {
			t.Fatalf("cached lookup of %s = %v, %v", n, v, err)
		}
	}

	before := c.Stats().Evictions
	if err := write(ctx, ic, url); err != nil {
		t.Fatal(err)
	}
	if err := writer.Rebind(ctx, url+"ev/sentinel", "v2"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := ic.Lookup(ctx, url+"ev/sentinel")
		if err != nil {
			t.Fatal(err)
		}
		if v == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sentinel rebind's event never reached the cache")
		}
		time.Sleep(10 * time.Millisecond)
	}
	evicted = c.Stats().Evictions - before

	hits := c.Stats().Hits
	for _, n := range names[2:] {
		if _, err := ic.Lookup(ctx, url+"ev/"+n); err != nil {
			t.Fatal(err)
		}
	}
	return evicted, int(c.Stats().Hits - hits)
}

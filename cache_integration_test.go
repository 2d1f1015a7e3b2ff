package gondi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gondi/internal/breaker"
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

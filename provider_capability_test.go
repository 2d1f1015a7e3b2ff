package gondi

import (
	"testing"

	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/provider/dnssp"
	"gondi/internal/provider/fssp"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/jxtasp"
	"gondi/internal/provider/ldapsp"
	"gondi/internal/provider/memsp"
)

// TestProviderCapabilities pins what each raw provider context is: the
// optional interfaces it satisfies, and so what core.Supports answers for
// every kind of operation on it. A provider embeds the core adapter for
// exactly its capabilities; embedding a wider one would make Supports
// promise operations the provider cannot answer, and obs would meter
// them. Only type assertions are made, so zero values serve.
func TestProviderCapabilities(t *testing.T) {
	for _, tc := range []struct {
		name                                  string
		c                                     core.Context
		dir, event, batch, referenceable, ttl bool
	}{
		{name: "dnssp", c: new(dnssp.Context), dir: true, ttl: true, referenceable: true},
		{name: "fssp", c: new(fssp.Context), dir: true, referenceable: true},
		{name: "hdnssp", c: new(hdnssp.Context), dir: true, event: true, batch: true, referenceable: true},
		{name: "jinisp", c: new(jinisp.Context), dir: true, event: true, batch: true, referenceable: true},
		{name: "jxtasp", c: new(jxtasp.Context), dir: true, referenceable: true},
		{name: "ldapsp", c: new(ldapsp.Context), dir: true, ttl: true, referenceable: true},
		{name: "memsp", c: new(memsp.Context), dir: true, event: true, referenceable: true},
	} {
		_, dir := tc.c.(core.DirContext)
		_, event := tc.c.(core.EventContext)
		_, batch := tc.c.(core.BatchContext)
		_, ref := tc.c.(core.Referenceable)
		_, ttl := tc.c.(cache.TTLAdvisor)
		if dir != tc.dir || event != tc.event || batch != tc.batch || ref != tc.referenceable || ttl != tc.ttl {
			t.Errorf("%s: DirContext %v, EventContext %v, BatchContext %v, Referenceable %v, TTLAdvisor %v; want %v, %v, %v, %v, %v",
				tc.name, dir, event, batch, ref, ttl, tc.dir, tc.event, tc.batch, tc.referenceable, tc.ttl)
		}
		for k := core.OpKind(0); k < core.NumOpKinds; k++ {
			// Every provider is a DirContext, so Watch is the only kind
			// one of them can lack.
			want := k != core.OpWatch || tc.event
			if got := core.Supports(tc.c, core.Op{Kind: k}); got != want {
				t.Errorf("%s: Supports(%v) = %v, want %v", tc.name, k, got, want)
			}
		}
		for _, k := range []core.OpKind{core.OpBind, core.OpRebind, core.OpCreateSubcontext} {
			if !core.Supports(tc.c, core.Op{Kind: k, Dir: true}) {
				t.Errorf("%s: Supports(%v with attributes) = false", tc.name, k)
			}
		}
	}
}

package jini

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/rpc"
)

func TestEntryMatching(t *testing.T) {
	e := NewEntry("Name", "name", "printer-3", "floor", "2")
	tests := []struct {
		tmpl Entry
		want bool
	}{
		{NewEntry("Name", "name", "printer-3"), true},
		{NewEntry("Name", "name", "printer-4"), false},
		{NewEntry("Name"), true},                  // type only
		{NewEntry(""), true},                      // full wildcard
		{NewEntry("Location"), false},             // wrong type
		{NewEntry("Name", "floor", ""), true},     // empty field = wildcard
		{NewEntry("Name", "missing", "x"), false}, // absent field
		{NewEntry("Name", "name", "printer-3", "floor", "2"), true},
	}
	for i, tc := range tests {
		if got := e.MatchesTemplate(tc.tmpl); got != tc.want {
			t.Errorf("case %d: %v matches %v = %v, want %v", i, e, tc.tmpl, got, tc.want)
		}
	}
}

func TestTemplateMatching(t *testing.T) {
	si := &ServiceItem{
		ID:      "svc-1",
		Types:   []string{"compute.Scheduler", "core.Service"},
		Entries: []Entry{NewEntry("Name", "name", "sched"), NewEntry("Location", "site", "emory")},
	}
	tests := []struct {
		tmpl ServiceTemplate
		want bool
	}{
		{ServiceTemplate{}, true},
		{ServiceTemplate{ID: "svc-1"}, true},
		{ServiceTemplate{ID: "other"}, false},
		{ServiceTemplate{Types: []string{"core.Service"}}, true},
		{ServiceTemplate{Types: []string{"core.Service", "compute.Scheduler"}}, true},
		{ServiceTemplate{Types: []string{"storage.Block"}}, false},
		{ServiceTemplate{Entries: []Entry{NewEntry("Name", "name", "sched")}}, true},
		{ServiceTemplate{Entries: []Entry{NewEntry("Name", "name", "x")}}, false},
		{ServiceTemplate{
			Types:   []string{"core.Service"},
			Entries: []Entry{NewEntry("Location", "site", "emory")},
		}, true},
	}
	for i, tc := range tests {
		if got := tc.tmpl.Matches(si); got != tc.want {
			t.Errorf("case %d: %v, want %v", i, got, tc.want)
		}
	}
}

func newTestLUS(t *testing.T) (*LUS, *Registrar) {
	t.Helper()
	l, err := NewLUS(LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	r, err := DialRegistrar(l.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return l, r
}

func TestRegisterLookup(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	reg, err := r.Register(ctx, ServiceItem{
		Types:   []string{"printer.Service"},
		Service: []byte("stub"),
		Entries: []Entry{NewEntry("Name", "name", "p1")},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if reg.ID == "" || time.Until(reg.Expiry) <= 0 {
		t.Fatalf("registration = %+v", reg)
	}
	items, err := r.Lookup(ctx, ServiceTemplate{Types: []string{"printer.Service"}}, 0)
	if err != nil || len(items) != 1 || string(items[0].Service) != "stub" {
		t.Fatalf("lookup = %+v, %v", items, err)
	}
	// ID lookup.
	item, ok, err := r.LookupOne(ctx, ServiceTemplate{ID: reg.ID})
	if err != nil || !ok || item.ID != reg.ID {
		t.Fatalf("id lookup = %+v %v %v", item, ok, err)
	}
}

// Register is overwrite-only: same ID replaces unconditionally. This is
// the §5.1 property that forces distributed locking for atomic bind.
func TestRegisterOverwrites(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	reg, err := r.Register(ctx, ServiceItem{ID: "fixed", Service: []byte("v1")}, time.Minute)
	if err != nil || reg.ID != "fixed" {
		t.Fatal(err)
	}
	if _, err := r.Register(ctx, ServiceItem{ID: "fixed", Service: []byte("v2")}, time.Minute); err != nil {
		t.Fatalf("overwrite register must succeed (idempotency): %v", err)
	}
	item, ok, _ := r.LookupOne(ctx, ServiceTemplate{ID: "fixed"})
	if !ok || string(item.Service) != "v2" {
		t.Fatalf("item = %+v %v", item, ok)
	}
}

func TestLeaseExpiryAndRenewal(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	reg, err := r.Register(ctx, ServiceItem{ID: "leased"}, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Renew before expiry.
	time.Sleep(120 * time.Millisecond)
	if _, err := r.Renew(ctx, reg.ID, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, ok, _ := r.LookupOne(ctx, ServiceTemplate{ID: "leased"}); !ok {
		t.Fatal("renewed lease expired")
	}
	// Let it lapse.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, ok, err := r.LookupOne(ctx, ServiceTemplate{ID: "leased"})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Renew after expiry fails.
	if _, err := r.Renew(ctx, reg.ID, time.Minute); err == nil {
		t.Fatal("renew of expired lease succeeded")
	}
}

// An expired lease is gone from the moment it expires, not from the next
// reaper sweep: Jini answers "unknown lease".
func TestExpiredLeaseGoneBeforeReap(t *testing.T) {
	l, _ := newTestLUS(t)
	reg := l.register(ServiceItem{ID: "lapsed", Types: []string{"t.T"}}, time.Minute.Milliseconds())
	l.mu.Lock()
	l.items[reg.ID].expiry = time.Now().Add(-time.Millisecond)
	l.mu.Unlock()
	if _, err := l.renew(reg.ID, time.Minute.Milliseconds()); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("renew of an expired, unreaped lease: %v, want core.ErrNotFound", err)
	}
	if items := l.lookup(ServiceTemplate{Types: []string{"t.T"}}, 0); len(items) != 0 {
		t.Fatalf("lookup returned %d expired items", len(items))
	}
}

// A lookup by ID reads the item from the map, and answers as the scan
// did: the expiry and the template's Types and Entries still apply.
func TestLookupByIDMatchesScan(t *testing.T) {
	l := &LUS{items: map[ServiceID]*storedItem{}, watchers: map[uint64]*watcher{}} // no reaper
	l.register(ServiceItem{ID: "svc", Types: []string{"t.A", "t.B"},
		Entries: []Entry{NewEntry("Name", "name", "printer", "floor", "2")}}, time.Minute.Milliseconds())
	l.register(ServiceItem{ID: "other", Types: []string{"t.A"}}, time.Minute.Milliseconds())
	scan := func(tm ServiceTemplate) []ServiceItem {
		var out []ServiceItem
		for _, si := range l.items {
			if time.Now().Before(si.expiry) && tm.Matches(&si.item) {
				out = append(out, si.item.Clone())
			}
		}
		return out
	}
	for _, tc := range []struct {
		tmpl ServiceTemplate
		hit  bool
	}{
		{ServiceTemplate{ID: "svc"}, true},
		{ServiceTemplate{ID: "svc", Types: []string{"t.B"}}, true},
		{ServiceTemplate{ID: "svc", Entries: []Entry{NewEntry("Name", "floor", "2")}}, true},
		{ServiceTemplate{ID: "svc", Entries: []Entry{NewEntry("Name", "name", "")}}, true},
		{ServiceTemplate{ID: "missing"}, false},
		{ServiceTemplate{ID: "svc", Types: []string{"t.C"}}, false},
		{ServiceTemplate{ID: "svc", Types: []string{"t.A", "t.C"}}, false},
		{ServiceTemplate{ID: "svc", Entries: []Entry{NewEntry("Name", "name", "scanner")}}, false},
		{ServiceTemplate{ID: "svc", Entries: []Entry{NewEntry("Location")}}, false},
		{ServiceTemplate{ID: "other", Entries: []Entry{NewEntry("Name")}}, false},
	} {
		got, want := l.lookup(tc.tmpl, 1), scan(tc.tmpl)
		if !reflect.DeepEqual(got, want) || (len(got) == 1) != tc.hit {
			t.Errorf("lookup(%+v) = %+v, scan = %+v, want hit %v", tc.tmpl, got, want, tc.hit)
		}
	}
	l.items["svc"].expiry = time.Now().Add(-time.Millisecond)
	if got := l.lookup(ServiceTemplate{ID: "svc"}, 0); len(got) != 0 {
		t.Fatalf("lookup by ID returned an expired, unreaped item: %+v", got)
	}
}

func TestCancel(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	reg, _ := r.Register(ctx, ServiceItem{ID: "c"}, time.Minute)
	if err := r.Cancel(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.LookupOne(ctx, ServiceTemplate{ID: "c"}); ok {
		t.Fatal("cancelled item still present")
	}
	if err := r.Cancel(ctx, reg.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
}

func TestNotifyTransitions(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	var mu sync.Mutex
	var got []ServiceEvent
	tmpl := ServiceTemplate{Types: []string{"watched.Type"}}
	_, err := r.Notify(ctx, tmpl,
		TransitionNoMatchMatch|TransitionMatchNoMatch|TransitionMatchMatch,
		time.Minute, func(ev ServiceEvent) {
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	item := ServiceItem{ID: "w", Types: []string{"watched.Type"}, Service: []byte("1")}
	if _, err := r.Register(ctx, item, time.Minute); err != nil {
		t.Fatal(err)
	}
	item.Service = []byte("2")
	if _, err := r.Register(ctx, item, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d events, want 3", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Transition != TransitionNoMatchMatch || got[0].Item == nil {
		t.Errorf("event 0 = %+v", got[0])
	}
	if got[1].Transition != TransitionMatchMatch || string(got[1].Item.Service) != "2" {
		t.Errorf("event 1 = %+v", got[1])
	}
	if got[2].Transition != TransitionMatchNoMatch || got[2].Item != nil {
		t.Errorf("event 2 = %+v", got[2])
	}
}

func TestNotifyMaskFiltering(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	var mu sync.Mutex
	count := 0
	_, err := r.Notify(ctx, ServiceTemplate{}, TransitionMatchNoMatch, time.Minute, func(ServiceEvent) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(ctx, ServiceItem{ID: "x"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	if count != 0 {
		t.Errorf("masked transition delivered (%d)", count)
	}
	mu.Unlock()
	if err := r.Cancel(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := count
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("count = %d, want 1", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLeaseExpiryFiresMatchNoMatch(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	fired := make(chan ServiceEvent, 1)
	if _, err := r.Notify(ctx, ServiceTemplate{}, TransitionMatchNoMatch, time.Minute, func(ev ServiceEvent) {
		select {
		case fired <- ev:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(ctx, ServiceItem{ID: "fleeting"}, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-fired:
		if ev.ID != "fleeting" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("expiry event not delivered")
	}
}

func TestLeaseRenewalManager(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	reg, err := r.Register(ctx, ServiceItem{ID: "managed"}, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	m := NewLeaseRenewalManager()
	defer m.Stop()
	m.Manage(r, reg.ID, 200*time.Millisecond)
	// Far beyond the original lease, the item must still exist.
	time.Sleep(700 * time.Millisecond)
	if _, ok, _ := r.LookupOne(ctx, ServiceTemplate{ID: "managed"}); !ok {
		t.Fatal("managed lease expired")
	}
	if m.Count() != 1 {
		t.Errorf("Count = %d", m.Count())
	}
	// Forget, then the lease lapses.
	m.Forget(reg.ID)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok, _ := r.LookupOne(ctx, ServiceTemplate{ID: "managed"}); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("forgotten lease never expired")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// The renewer gives a lease up only when the registrar says it does not
// exist (or the lease really expired): any other remote error is retried
// on the short period, like a transport error.
func TestLeaseRenewerLosesLeaseOnlyOnNotFound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fail     error
		wantLost bool
	}{
		{"internal", errors.New("registrar hiccup"), false},
		{"not-found", fmt.Errorf("renew: %w", core.ErrNotFound), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := rpc.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			ok := func(*rpc.ServerConn, []byte) ([]byte, error) {
				return encodeRsp(&wireRsp{Expiry: time.Now().Add(time.Second)}), nil
			}
			var renewals atomic.Int32
			srv.Handle(mGroups, ok)
			srv.Handle(mRenew, func(sc *rpc.ServerConn, body []byte) ([]byte, error) {
				if renewals.Add(1) == 1 {
					return nil, tc.fail
				}
				return ok(sc, body)
			})
			r, err := DialRegistrar(srv.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			lost := make(chan error, 1)
			m := NewLeaseRenewalManager()
			m.OnLost = func(_ ServiceID, err error) { lost <- err }
			defer m.Stop()
			m.Manage(r, "svc", 400*time.Millisecond)

			deadline := time.After(5 * time.Second)
			for renewals.Load() < 3 {
				select {
				case err := <-lost:
					if !tc.wantLost {
						t.Fatalf("lease given up after %v", err)
					}
					if !errors.Is(err, core.ErrNotFound) {
						t.Fatalf("OnLost err = %v, want core.ErrNotFound", err)
					}
					return
				case <-deadline:
					t.Fatalf("%d renewals in 5s", renewals.Load())
				case <-time.After(10 * time.Millisecond):
				}
			}
			if tc.wantLost {
				t.Fatalf("lease still renewed (%d renewals) after the registrar said not found", renewals.Load())
			}
			if m.Count() != 1 {
				t.Fatalf("Count = %d, want the lease still managed", m.Count())
			}
		})
	}
}

// OnLost runs after the lease has left the manager, so a holder that
// closes everything when a lease is lost (Stop waits for every renewal)
// does not wait for itself.
func TestOnLostMayStopManager(t *testing.T) {
	ctx := context.Background()
	_, r := newTestLUS(t)
	m := NewLeaseRenewalManager()
	stopped := make(chan struct{})
	m.OnLost = func(ServiceID, error) {
		m.Stop()
		close(stopped)
	}
	reg, err := r.Register(ctx, ServiceItem{ID: "doomed"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Cancel(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	m.Manage(r, reg.ID, 100*time.Millisecond)
	select {
	case <-stopped:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop called from OnLost did not return")
	}
	if m.Count() != 0 {
		t.Fatalf("Count = %d after the lease was lost", m.Count())
	}
}

func TestLocatorParsing(t *testing.T) {
	cases := map[string]string{
		"jini://host:1234": "host:1234",
		"jini://host":      "host:4160",
		"host:99":          "host:99",
		"host":             "host:4160",
		"jini://:7000":     "127.0.0.1:7000",
	}
	for in, want := range cases {
		l, err := ParseLocator(in)
		if err != nil || l.Addr() != want {
			t.Errorf("ParseLocator(%q) = %q, %v; want %q", in, l.Addr(), err, want)
		}
	}
	if _, err := ParseLocator("jini://"); err == nil {
		t.Error("empty locator parsed")
	}
}

func TestDiscovery(t *testing.T) {
	ResetAnnouncements()
	defer ResetAnnouncements()
	l, err := NewLUS(LUSConfig{ListenAddr: "127.0.0.1:0", Groups: []string{"lab"}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	Announce(l)
	regs, err := DiscoverGroup("lab", time.Second)
	if err != nil || len(regs) != 1 {
		t.Fatalf("discover = %d, %v", len(regs), err)
	}
	defer regs[0].Close()
	groups, err := regs[0].ServiceGroups(context.Background())
	if err != nil || len(groups) != 1 || groups[0] != "lab" {
		t.Errorf("groups = %v, %v", groups, err)
	}
	if _, err := DiscoverGroup("nope", time.Second); err == nil {
		t.Error("empty group discovered")
	}
	Withdraw(l)
	if _, err := DiscoverGroup("lab", time.Second); err == nil {
		t.Error("withdrawn LUS still discoverable")
	}
}

func TestConcurrentRegistrations(t *testing.T) {
	ctx := context.Background()
	l, _ := newTestLUS(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := DialRegistrar(l.Addr(), 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			for i := 0; i < 20; i++ {
				if _, err := r.Register(ctx, ServiceItem{
					Types: []string{"load.Test"},
				}, time.Minute); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := l.ItemCount(); n != 120 {
		t.Errorf("ItemCount = %d, want 120", n)
	}
}

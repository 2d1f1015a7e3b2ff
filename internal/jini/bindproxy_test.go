package jini

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
)

func newProxyWorld(t *testing.T) (*LUS, *BindProxy, *ProxyClient) {
	t.Helper()
	lus, err := NewLUS(LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lus.Close() })
	proxy, err := NewBindProxy(lus.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	pc, err := DialProxy(proxy.Addr(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return lus, proxy, pc
}

func TestProxyAtomicRegister(t *testing.T) {
	ctx := context.Background()
	lus, _, pc := newProxyWorld(t)
	item := ServiceItem{ID: "contested", Service: []byte("first")}
	if _, err := pc.Register(ctx, item, time.Minute, true); err != nil {
		t.Fatal(err)
	}
	// Second only-new registration fails atomically.
	item.Service = []byte("second")
	_, err := pc.Register(ctx, item, time.Minute, true)
	if !errors.Is(err, core.ErrAlreadyBound) {
		t.Fatalf("want already-bound, got %v", err)
	}
	// The item is untouched.
	r, err := DialRegistrar(lus.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok, _ := r.LookupOne(ctx, ServiceTemplate{ID: "contested"})
	if !ok || string(got.Service) != "first" {
		t.Fatalf("item = %+v %v", got, ok)
	}
	// Overwrite mode succeeds.
	if _, err := pc.Register(ctx, item, time.Minute, false); err != nil {
		t.Fatal(err)
	}
	got, _, _ = r.LookupOne(ctx, ServiceTemplate{ID: "contested"})
	if string(got.Service) != "second" {
		t.Fatalf("overwrite failed: %+v", got)
	}
}

// The whole point: concurrent only-new registrations of the same ID have
// exactly one winner, with no distributed locking at the clients.
func TestProxyConcurrentAtomicity(t *testing.T) {
	ctx := context.Background()
	_, proxy, _ := newProxyWorld(t)
	const racers = 8
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc, err := DialProxy(proxy.Addr(), 3*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer pc.Close()
			item := ServiceItem{ID: "race", Service: []byte(fmt.Sprintf("racer-%d", i))}
			if _, err := pc.Register(ctx, item, time.Minute, true); err == nil {
				wins <- i
			} else if !errors.Is(err, core.ErrAlreadyBound) {
				t.Errorf("racer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d winners", n)
	}
}

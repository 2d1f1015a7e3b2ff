package connpool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/lease"
)

type fakeConn struct {
	Entry
	dead   atomic.Bool
	closes atomic.Int32
	renew  lease.Set
}

func (f *fakeConn) Closed() bool { return f.dead.Load() }

func (f *fakeConn) Close() error {
	f.renew.StopAll()
	f.closes.Add(1)
	return nil
}

// dialer returns a dial func that records every value it creates.
func dialer(mu *sync.Mutex, made *[]*fakeConn) func() (*fakeConn, error) {
	return func() (*fakeConn, error) {
		f := &fakeConn{}
		mu.Lock()
		*made = append(*made, f)
		mu.Unlock()
		return f, nil
	}
}

func entries(p *Pool[*fakeConn]) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

func TestConcurrentGetRelease(t *testing.T) {
	var p Pool[*fakeConn]
	var mu sync.Mutex
	var made []*fakeConn
	dial := dialer(&mu, &made)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := p.Get("k", dial)
				if err != nil {
					t.Error(err)
					return
				}
				if v.Released() {
					t.Error("Get returned a released value")
				}
				var r Ref
				if err := p.Release(v, &r); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := entries(&p); n != 0 {
		t.Fatalf("%d entries left", n)
	}
	for i, f := range made {
		if got := f.closes.Load(); got != 1 || !f.Released() {
			t.Fatalf("value %d: closed %d times, released=%v", i, got, f.Released())
		}
	}
}

func TestOpenCloseCyclesLeaveNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	var p Pool[*fakeConn]
	var mu sync.Mutex
	var made []*fakeConn
	dial := dialer(&mu, &made)
	noop := func(context.Context) error { return nil }
	renew := func(s *lease.Set, key string) {
		if ctx, end, ok := s.Begin(key); ok {
			go func() { defer end(); _ = lease.Renew(ctx, time.Hour, noop, nil) }()
		}
	}
	for i := 0; i < 1000; i++ {
		v, err := p.Get("k", dial)
		if err != nil {
			t.Fatal(err)
		}
		renew(&v.renew, "a")
		renew(&v.renew, "b")
		var r Ref
		if err := p.Release(v, &r); err != nil {
			t.Fatal(err)
		}
	}
	if n := entries(&p); n != 0 {
		t.Fatalf("%d entries left", n)
	}
	// StopAll waits for every loop's deferred bookkeeping; the goroutine
	// itself may take a moment longer to leave the scheduler.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 1000 cycles, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	for _, f := range made {
		if n := f.renew.Len(); n != 0 {
			t.Fatalf("renewal set still holds %d loops", n)
		}
	}
}

func TestFailedDialLeavesNoEntry(t *testing.T) {
	var p Pool[*fakeConn]
	boom := errors.New("boom")
	fail := func() (*fakeConn, error) { return nil, boom }
	if _, err := p.Get("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := entries(&p); n != 0 {
		t.Fatalf("fresh key: %d entries after a failed dial", n)
	}
	// A dead entry is dropped even when its replacement cannot be dialled.
	var mu sync.Mutex
	var made []*fakeConn
	v, _ := p.Get("k", dialer(&mu, &made))
	v.dead.Store(true)
	if _, err := p.Get("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := entries(&p); n != 0 {
		t.Fatalf("dead key: %d entries after a failed dial", n)
	}
}

func TestDoubleReleaseIsNoop(t *testing.T) {
	var p Pool[*fakeConn]
	var mu sync.Mutex
	var made []*fakeConn
	dial := dialer(&mu, &made)
	a, _ := p.Get("k", dial)
	b, _ := p.Get("k", dial)
	if a != b {
		t.Fatal("one key, two values")
	}
	var ra, rb Ref
	p.Release(a, &ra)
	p.Release(a, &ra)
	if a.Released() || a.closes.Load() != 0 || entries(&p) != 1 {
		t.Fatalf("a second release by one holder dropped the other's value")
	}
	p.Release(b, &rb)
	if !b.Released() || b.closes.Load() != 1 || entries(&p) != 0 {
		t.Fatalf("last release: released=%v closes=%d entries=%d", b.Released(), b.closes.Load(), entries(&p))
	}
}

func TestDeadEntryReplacedNotEvicted(t *testing.T) {
	var p Pool[*fakeConn]
	var mu sync.Mutex
	var made []*fakeConn
	dial := dialer(&mu, &made)
	old, _ := p.Get("k", dial)
	old.dead.Store(true)
	repl, _ := p.Get("k", dial)
	if repl == old {
		t.Fatal("dead value handed out again")
	}
	var ro, rr Ref
	p.Release(old, &ro)
	if old.closes.Load() != 1 {
		t.Fatal("the dead value's last holder did not close it")
	}
	again, _ := p.Get("k", dial)
	if again != repl {
		t.Fatal("the dead value's last release evicted its replacement")
	}
	var ra Ref
	p.Release(again, &ra)
	p.Release(repl, &rr)
	if repl.closes.Load() != 1 || entries(&p) != 0 {
		t.Fatalf("replacement: closes=%d entries=%d", repl.closes.Load(), entries(&p))
	}
}

// Held counts a value from its dial to its last release, including a dead
// value whose holders have not let go yet.
func TestHeldCountsUnreleasedValues(t *testing.T) {
	var p Pool[*fakeConn]
	var mu sync.Mutex
	var made []*fakeConn
	dial := dialer(&mu, &made)
	before := Held()
	a, _ := p.Get("k", dial)
	var ra, rb, rc Ref
	p.Get("k", dial) // a second holder of a
	a.dead.Store(true)
	c, _ := p.Get("k", dial) // replaces a, which keeps its holders
	if n := Held() - before; n != 2 {
		t.Fatalf("held = %d, want 2 (the dead value and its replacement)", n)
	}
	p.Release(a, &ra)
	if n := Held() - before; n != 2 {
		t.Fatalf("held = %d after one of two holders released, want 2", n)
	}
	p.Release(a, &rb)
	p.Release(c, &rc)
	if n := Held() - before; n != 0 {
		t.Fatalf("held = %d after every release, want 0", n)
	}
}

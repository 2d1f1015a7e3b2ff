package connpool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/core"
)

type fakeConn struct {
	Entry
	dead   atomic.Bool
	closes atomic.Int32
	renew  Renewals
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
	for i := 0; i < 1000; i++ {
		v, err := p.Get("k", dial)
		if err != nil {
			t.Fatal(err)
		}
		v.renew.Start("a", time.Hour, noop)
		v.renew.Start("b", time.Hour, noop)
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
		if len(f.renew.loops) != 0 {
			t.Fatalf("renewal set still holds %d loops", len(f.renew.loops))
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

// renewCounter counts renew calls and answers them from a script; once
// the script runs out every call succeeds.
type renewCounter struct {
	mu     sync.Mutex
	calls  int
	script []error
}

func (c *renewCounter) renew(context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if len(c.script) == 0 {
		return nil
	}
	err := c.script[0]
	c.script = c.script[1:]
	return err
}

func (c *renewCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func waitLoops(t *testing.T, r *Renewals, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.loops)
		r.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d renewal loops, want %d", n, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRenewalRetriesTransientFailures(t *testing.T) {
	var r Renewals
	defer r.StopAll()
	busy := &core.ServerBusyError{Op: "renew"}
	c := &renewCounter{script: []error{busy, busy, busy}}
	r.Start("k", 80*time.Millisecond, c.renew)
	deadline := time.Now().Add(2 * time.Second)
	for c.count() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("%d renewals: the loop stopped after a transient failure", c.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitLoops(t, &r, 1)
}

func TestRenewalGivesUpOnNotFound(t *testing.T) {
	var r Renewals
	defer r.StopAll()
	c := &renewCounter{script: []error{core.ErrNotFound}}
	r.Start("k", 40*time.Millisecond, c.renew)
	waitLoops(t, &r, 0)
	if n := c.count(); n != 1 {
		t.Fatalf("%d renewals after a not-found answer, want 1", n)
	}
}

func TestRenewalGivesUpOnceExpired(t *testing.T) {
	var r Renewals
	defer r.StopAll()
	down := errors.New("connection refused")
	c := &renewCounter{script: make([]error, 1000)}
	for i := range c.script {
		c.script[i] = down
	}
	r.Start("k", 40*time.Millisecond, c.renew)
	waitLoops(t, &r, 0)
}

func TestStopAllStopsLaterStarts(t *testing.T) {
	var r Renewals
	r.StopAll()
	r.Start("k", time.Hour, func(context.Context) error { return nil })
	waitLoops(t, &r, 0)
}

package lease

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
)

// start runs a loop the way the providers do: the caller's goroutine,
// end before any loss is reported.
func start(s *Set, key string, d time.Duration, renew func(context.Context) error, ready func() bool, lost func(error)) bool {
	ctx, end, ok := s.Begin(key)
	if !ok {
		return false
	}
	go func() {
		err := Renew(ctx, d, renew, ready)
		end()
		if err != nil && lost != nil {
			lost(err)
		}
	}()
	return true
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

func waitLoops(t *testing.T, s *Set, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.Len() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d renewal loops, want %d", s.Len(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRenewalRetriesTransientFailures(t *testing.T) {
	var s Set
	defer s.StopAll()
	busy := &core.ServerBusyError{Op: "renew"}
	c := &renewCounter{script: []error{busy, busy, busy}}
	start(&s, "k", 80*time.Millisecond, c.renew, nil, nil)
	deadline := time.Now().Add(2 * time.Second)
	for c.count() < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("%d renewals: the loop stopped after a transient failure", c.count())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitLoops(t, &s, 1)
}

func TestRenewalGivesUpOnNotFound(t *testing.T) {
	var s Set
	defer s.StopAll()
	c := &renewCounter{script: []error{core.ErrNotFound}}
	lost := make(chan error, 1)
	start(&s, "k", 40*time.Millisecond, c.renew, nil, func(err error) { lost <- err })
	if err := <-lost; !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("lost with %v, want core.ErrNotFound", err)
	}
	waitLoops(t, &s, 0)
	if n := c.count(); n != 1 {
		t.Fatalf("%d renewals after a not-found answer, want 1", n)
	}
}

func TestRenewalGivesUpOnceExpired(t *testing.T) {
	var s Set
	defer s.StopAll()
	down := errors.New("connection refused")
	c := &renewCounter{script: make([]error, 1000)}
	for i := range c.script {
		c.script[i] = down
	}
	start(&s, "k", 40*time.Millisecond, c.renew, nil, nil)
	waitLoops(t, &s, 0)
}

func TestStopAllStopsLaterStarts(t *testing.T) {
	var s Set
	s.StopAll()
	if ctx, end, ok := s.Begin("k"); ok || ctx != nil || end != nil {
		t.Fatal("Begin after StopAll registered a loop")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after StopAll", s.Len())
	}
}

// The first renewal lands in [0.4, 0.5]·lease: half the lease less up to
// 20% jitter. A timer never fires early; late is scheduling.
func TestFirstRenewalAtJitteredHalfLease(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if d := jittered(time.Second); d < 800*time.Millisecond || d > time.Second {
			t.Fatalf("jittered(1s) = %v, want within [0.8s, 1s]", d)
		}
	}
	const d = 400 * time.Millisecond
	var s Set
	defer s.StopAll()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		begun := time.Now()
		first := make(chan time.Duration, 1)
		start(&s, string(rune('a'+i)), d, func(context.Context) error {
			select {
			case first <- time.Since(begun):
			default:
			}
			return nil
		}, nil, nil)
		go func() {
			defer wg.Done()
			if got := <-first; got < 4*d/10 || got > d/2+100*time.Millisecond {
				t.Errorf("first renewal after %v, want within [%v, %v] plus scheduling", got, 4*d/10, d/2)
			}
		}()
	}
	wg.Wait()
}

func TestNotReadySkipsTheWireAndGivesUpAtExpiry(t *testing.T) {
	const d = 80 * time.Millisecond
	c := &renewCounter{}
	begun := time.Now()
	err := Renew(context.Background(), d, c.renew, func() bool { return false })
	if err == nil {
		t.Fatal("Renew returned nil with the endpoint never ready")
	}
	if elapsed := time.Since(begun); elapsed < d {
		t.Fatalf("gave up after %v, before the %v lease expired", elapsed, d)
	}
	if n := c.count(); n != 0 {
		t.Fatalf("%d renewals reached the wire while not ready", n)
	}
}

// A loss handler that stops the whole set — a provider closing itself
// when a lease is lost — returns: its loop has already ended.
func TestLossHandlerMayStopAll(t *testing.T) {
	var s Set
	done := make(chan struct{})
	start(&s, "k", 40*time.Millisecond, func(context.Context) error { return core.ErrNotFound }, nil, func(error) {
		s.StopAll()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("StopAll from the loss handler did not return")
	}
}

func TestBeginReplacesAndStopCancels(t *testing.T) {
	var s Set
	defer s.StopAll()
	ctx1, end1, _ := s.Begin("k")
	ctx2, end2, _ := s.Begin("k")
	if ctx1.Err() == nil {
		t.Fatal("a second Begin for one key left the first loop running")
	}
	end1() // the replaced loop's end must not drop its successor
	if s.Len() != 1 {
		t.Fatalf("Len = %d after the replaced loop ended, want 1", s.Len())
	}
	s.Stop("k")
	if ctx2.Err() == nil || s.Len() != 0 {
		t.Fatalf("Stop: ctx err %v, Len %d", ctx2.Err(), s.Len())
	}
	end2()
}

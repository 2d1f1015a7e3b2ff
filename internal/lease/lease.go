// Package lease keeps bound entries' leases alive — the provider
// "automatically renews leases of all entries that it has previously
// bound, until they are explicitly removed, or until the Java VM exits"
// (§5.1). Renew is the one renewal loop and Set the one keyed bookkeeping
// the Jini, HDNS and JXTA providers share. The caller starts each loop's
// goroutine (Set.Begin, then go Renew), so a stack dump names its owner.
package lease

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"gondi/internal/core"
)

// errNotReady is the loss reported for a lease that expired while ready
// kept every renewal off the wire.
var errNotReady = errors.New("lease: expired while its endpoint was not ready")

// Renew keeps a lease of duration lease alive by calling renew until ctx
// ends. The one rule:
//   - renew at lease/2, shortened by up to 20% jitter, so leases granted
//     together (an LUS restart, a bulk bind) do not renew in lockstep;
//   - skip the wire while ready reports false (nil means always ready),
//     counting the attempt as failed;
//   - bound each attempt by lease/2;
//   - retry a failure every min(lease/8, 500ms): a shed, a timeout or a
//     dropped connection may clear before the lease runs out.
//
// Renew returns the failure once renew reports core.ErrNotFound or the
// lease has expired, and nil when ctx ends.
func Renew(ctx context.Context, lease time.Duration, renew func(ctx context.Context) error, ready func() bool) error {
	half := lease / 2
	retry := min(lease/8, 500*time.Millisecond)
	expiry := time.Now().Add(lease)
	t := time.NewTimer(jittered(half))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
		err := errNotReady
		if ready == nil || ready() {
			rctx, cancel := context.WithTimeout(ctx, half)
			err = renew(rctx)
			cancel()
		}
		switch {
		case ctx.Err() != nil:
			return nil
		case err == nil:
			expiry = time.Now().Add(lease)
			t.Reset(jittered(half))
		case errors.Is(err, core.ErrNotFound) || time.Now().After(expiry):
			return err
		default:
			t.Reset(retry)
		}
	}
}

// jittered shortens d by up to 20%.
func jittered(d time.Duration) time.Duration {
	return d - rand.N(d/5+1)
}

// Set tracks the running renewal loops, at most one per key. The zero
// value is ready to use.
type Set struct {
	mu      sync.Mutex
	loops   map[string]*loop
	stopped bool
	wg      sync.WaitGroup
}

type loop struct{ cancel context.CancelFunc }

// Begin registers a loop for key and cancels any loop already running for
// it. The caller runs the loop under ctx and calls end, once, when the
// loop returns. ok is false, and nothing is registered, once StopAll has
// run.
func (s *Set) Begin(key string) (ctx context.Context, end func(), ok bool) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &loop{cancel: cancel}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		cancel()
		return nil, nil, false
	}
	if old, ok := s.loops[key]; ok {
		old.cancel()
	}
	if s.loops == nil {
		s.loops = map[string]*loop{}
	}
	s.loops[key] = l
	s.wg.Add(1)
	s.mu.Unlock()
	return ctx, func() {
		s.mu.Lock()
		if s.loops[key] == l {
			delete(s.loops, key)
		}
		s.mu.Unlock()
		cancel()
		s.wg.Done()
	}, true
}

// Stop cancels key's loop, if any.
func (s *Set) Stop(key string) {
	s.mu.Lock()
	if l, ok := s.loops[key]; ok {
		l.cancel()
		delete(s.loops, key)
	}
	s.mu.Unlock()
}

// StopAll cancels every loop, waits for each to call its end, and makes
// later Begins report !ok.
func (s *Set) StopAll() {
	s.mu.Lock()
	s.stopped = true
	for key, l := range s.loops {
		l.cancel()
		delete(s.loops, key)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Len reports the loops running.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.loops)
}

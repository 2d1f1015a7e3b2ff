package connpool

import (
	"context"
	"errors"
	"sync"
	"time"

	"gondi/internal/core"
)

// Renewals keeps leases alive, one loop per key, until the key is
// stopped, the lease is lost, or StopAll. The zero value is ready to use.
type Renewals struct {
	mu      sync.Mutex
	loops   map[string]*renewal
	stopped bool
	wg      sync.WaitGroup
}

type renewal struct{ cancel context.CancelFunc }

// Start begins renewing key's lease, replacing any loop already running
// for key. renew is called at lease/2; a failed renewal is retried every
// min(lease/8, 500ms), and the loop gives up only when renew reports
// core.ErrNotFound or the lease has expired. Stopping the loop cancels the
// context of an in-flight renew. A lease <= 0, or a set already stopped
// by StopAll, starts nothing.
func (r *Renewals) Start(key string, lease time.Duration, renew func(ctx context.Context) error) {
	if lease <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &renewal{cancel: cancel}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		cancel()
		return
	}
	if old, ok := r.loops[key]; ok {
		old.cancel()
	}
	if r.loops == nil {
		r.loops = map[string]*renewal{}
	}
	r.loops[key] = l
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		renewLoop(ctx, lease, renew)
		r.mu.Lock()
		if r.loops[key] == l {
			delete(r.loops, key)
		}
		r.mu.Unlock()
		cancel()
	}()
}

func renewLoop(ctx context.Context, lease time.Duration, renew func(ctx context.Context) error) {
	retry := min(lease/8, 500*time.Millisecond)
	expiry := time.Now().Add(lease)
	t := time.NewTimer(lease / 2)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		rctx, cancel := context.WithTimeout(ctx, lease/2)
		err := renew(rctx)
		cancel()
		switch {
		case err == nil:
			expiry = time.Now().Add(lease)
			t.Reset(lease / 2)
		case errors.Is(err, core.ErrNotFound) || time.Now().After(expiry):
			return
		default:
			// A shed, a timeout or a dropped connection may clear before
			// the lease runs out.
			t.Reset(retry)
		}
	}
}

// Stop ends key's renewal loop, if any.
func (r *Renewals) Stop(key string) {
	r.mu.Lock()
	if l, ok := r.loops[key]; ok {
		l.cancel()
		delete(r.loops, key)
	}
	r.mu.Unlock()
}

// StopAll ends every loop, waits for them to exit, and makes later Starts
// no-ops.
func (r *Renewals) StopAll() {
	r.mu.Lock()
	r.stopped = true
	for key, l := range r.loops {
		l.cancel()
		delete(r.loops, key)
	}
	r.mu.Unlock()
	r.wg.Wait()
}

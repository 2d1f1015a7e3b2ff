package ptest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/core"
)

// AdmissionWorld is one provider wired to a server whose admission
// controller has been configured with a deliberately tiny queue bound
// (and, where the server supports cost injection, a slow read station)
// so a modest client storm saturates it. Build one per subtest in a
// RunAdmissionConformance factory.
type AdmissionWorld struct {
	// Open dials a fresh context reaching the saturable server. id
	// isolates connection pools between the suite's phases.
	Open func(t *testing.T, id string) (core.DirContext, error)
	// ReadOnly marks providers without write support (DNS): the suite
	// skips the seeding bind and reads Seed instead.
	ReadOnly bool
	// Seed is a name known to exist in a read-only world.
	Seed string
}

// admissionHang is the wall-clock bound at which the suite declares an
// op hung rather than shed: the whole point of admission control is
// that a saturated server answers fast, it does not queue you forever.
const admissionHang = 10 * time.Second

// RunAdmissionConformance executes the overload contract against one
// provider: under a client storm that saturates the server's admission
// queue, every op either succeeds or fails fast with a typed
// *core.ServerBusyError carrying a positive RetryAfter hint — never a
// hang, never an untyped error, and never a tripped breaker (shedding
// is the server working as designed, not the server being down). After
// the storm stops, the server drains and serves again on its own.
func RunAdmissionConformance(t *testing.T, factory func(t *testing.T) *AdmissionWorld) {
	CheckGoroutines(t)
	w := factory(t)
	ctx := context.Background()

	c, err := w.Open(t, "adm-main")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	seed := w.Seed
	if !w.ReadOnly {
		seed = "adm-seed"
		if err := bindRetryBusy(ctx, c, seed, "v"); err != nil {
			t.Fatalf("seed bind: %v", err)
		}
	}
	if _, err := c.Lookup(ctx, seed); err != nil {
		t.Fatalf("pre-storm lookup: %v", err)
	}

	// Dial every worker before the storm begins: some providers issue a
	// server op during Open (hdnssp's dial runs hdns.auth), which would
	// itself be shed mid-storm. Pre-storm the server is idle, so a
	// handful of busy retries absorbs any slot collision.
	const workers = 32
	ctxs := make([]core.DirContext, workers)
	for i := range ctxs {
		var cc core.DirContext
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			cc, err = w.Open(t, fmt.Sprintf("adm-%d-%d", i, attempt))
			var b *core.ServerBusyError
			if !errors.As(err, &b) {
				break
			}
			time.Sleep(b.RetryAfter)
		}
		if err != nil {
			t.Fatalf("worker %d open: %v", i, err)
		}
		ctxs[i] = cc
	}

	const storm = 400 * time.Millisecond
	var success, busy, busyNoHint, other, slow atomic.Int64
	var firstOther atomic.Value
	deadline := time.Now().Add(storm)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(cc core.DirContext) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
				start := time.Now()
				_, err := cc.Lookup(opCtx, seed)
				cancel()
				if time.Since(start) > admissionHang {
					slow.Add(1)
				}
				var b *core.ServerBusyError
				switch {
				case err == nil:
					success.Add(1)
				case errors.As(err, &b):
					busy.Add(1)
					if b.RetryAfter <= 0 {
						busyNoHint.Add(1)
					}
				default:
					firstOther.CompareAndSwap(nil, err)
					other.Add(1)
				}
			}
		}(ctxs[i])
	}
	wg.Wait()

	t.Logf("storm: %d ok, %d shed, %d other", success.Load(), busy.Load(), other.Load())
	if success.Load() == 0 {
		t.Error("storm: no op succeeded — admission is starving everything")
	}
	if busy.Load() == 0 {
		t.Error("storm: server never shed — admission queue bound not enforced")
	}
	if n := busyNoHint.Load(); n > 0 {
		t.Errorf("storm: %d busy errors arrived without a RetryAfter hint", n)
	}
	if n := other.Load(); n > 0 {
		t.Errorf("storm: %d untyped errors (first: %v)", n, firstOther.Load())
	}
	if n := slow.Load(); n > 0 {
		t.Errorf("storm: %d ops exceeded the %v hang bound", n, admissionHang)
	}

	// Load has dropped: the server must drain and answer a fresh client
	// on its own, and the storm's sheds must not have tripped the
	// endpoint breaker (busy is backpressure, not failure).
	var lastErr error
	for start := time.Now(); time.Since(start) < 3*time.Second; {
		pc, err := w.Open(t, fmt.Sprintf("adm-post-%d", time.Since(start)/time.Millisecond))
		if err == nil {
			_, err = pc.Lookup(ctx, seed)
			if err == nil {
				return
			}
			if errors.Is(err, breaker.ErrOpen) {
				t.Fatalf("breaker tripped on busy shedding: %v", err)
			}
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server did not drain after the storm: %v", lastErr)
}

// bindRetryBusy binds name, retrying a handful of times if the write
// slot happens to be busy (tiny queue bounds gate even the seeding op).
func bindRetryBusy(ctx context.Context, c core.DirContext, name string, v any) error {
	var err error
	for i := 0; i < 20; i++ {
		err = c.Bind(ctx, name, v)
		var b *core.ServerBusyError
		if !errors.As(err, &b) {
			return err
		}
		time.Sleep(b.RetryAfter)
	}
	return err
}

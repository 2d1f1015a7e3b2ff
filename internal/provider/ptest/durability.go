package ptest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gondi/internal/core"
)

// DurabilityWorld is a replicated naming deployment with durable state
// under test: one replica group anchored by a replica that persists to
// disk. The callbacks let the suite cut power, damage disks, and watch
// repair without knowing the substrate.
type DurabilityWorld struct {
	// Open dials a fresh context on the group, resolving the durable
	// replica's CURRENT address (restarts move ports). id isolates
	// connection pools between the suite's phases.
	Open func(t *testing.T, id string) (core.DirContext, error)
	// Sync forces the durable replica's state to disk — the fsync /
	// snapshot pass a housekeeping tick would eventually run. After it
	// returns, every write acked before the call must survive power loss.
	Sync func(t *testing.T)
	// Crash cuts power to the durable replica: no exit-time persistence,
	// no clean-shutdown marker. Redundant in-memory replicas (started via
	// AddReplica) stay up.
	Crash func(t *testing.T)
	// Restart boots the durable replica again from whatever its disk
	// holds. It must return once the replica serves — a boot that refuses
	// to start on damaged state fails the suite here.
	Restart func(t *testing.T)
	// Corrupt flips bits in the durable replica's at-rest state while it
	// is down (mid-log WAL damage, not a torn tail).
	Corrupt func(t *testing.T)
	// AddReplica starts one more (memory-only) replica in the group and
	// returns once it has joined and pulled state — the redundancy the
	// repair phase recovers from.
	AddReplica func(t *testing.T)
	// Damaged reports whether the durable replica booted with quarantined
	// state (sticky across the boot, even after repair).
	Damaged func() bool
	// Repaired reports whether that replica has completed auto-repair
	// since booting damaged.
	Repaired func() bool
}

// RunDurabilityConformance executes the storage-fault contract against
// one live deployment:
//
//   - Crash safety: after a power cut, a restart serves every write
//     acked before the last durable sync — and classifies the crash as a
//     crash, never as corruption.
//   - Corruption handling: mid-log damage on a downed replica's disk
//     makes the restart quarantine and boot degraded — typed damage, a
//     serving process, never a refusal to start.
//   - Auto-repair: the damaged replica pulls state from the group's
//     surviving replica and returns to serving the full name set.
func RunDurabilityConformance(t *testing.T, factory func(t *testing.T) *DurabilityWorld) {
	CheckGoroutines(t)
	w := factory(t)
	ctx := context.Background()

	const names = 40
	name := func(i int) string { return fmt.Sprintf("dur%d", i) }

	t.Run("AckedWritesSurviveCrash", func(t *testing.T) {
		c, err := w.Open(t, "dur-crash")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < names; i++ {
			if err := c.Bind(ctx, name(i), i); err != nil {
				t.Fatalf("bind %s: %v", name(i), err)
			}
		}
		w.Sync(t)
		w.Crash(t)
		w.Restart(t)
		if w.Damaged() {
			t.Fatal("replica classified a pure crash as corruption")
		}
		c2, err := w.Open(t, "dur-crash-after")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < names; i++ {
			if _, err := c2.Lookup(ctx, name(i)); err != nil {
				t.Fatalf("acked write lost across crash: %s: %v", name(i), err)
			}
		}
	})

	t.Run("CorruptionQuarantinesAndRepairs", func(t *testing.T) {
		// Give the group a healthy in-memory peer: it inherits the full
		// state now and is the donor the repair pulls from later.
		w.AddReplica(t)
		w.Sync(t)
		w.Crash(t)
		w.Corrupt(t)
		w.Restart(t)
		if !w.Damaged() {
			t.Fatal("replica booted from damaged disk without quarantining")
		}
		deadline := time.Now().Add(10 * time.Second)
		for !w.Repaired() {
			if time.Now().After(deadline) {
				t.Fatal("replica never auto-repaired from its surviving peer")
			}
			time.Sleep(15 * time.Millisecond)
		}
		// Repair restores the full name set.
		c, err := w.Open(t, "dur-repaired")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < names; i++ {
			if _, err := c.Lookup(ctx, name(i)); err != nil {
				t.Fatalf("name lost to corruption despite repair: %s: %v", name(i), err)
			}
		}
	})
}

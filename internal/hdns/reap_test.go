package hdns

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"gondi/internal/jgroups"
)

// The reaper's two steps, run by hand with a write sequenced between
// them: a name rebound without a lease, or renewed, after the scan found
// it due keeps its binding. The scan looks an hour ahead so the live
// reaper, which scans at the real clock, never touches the name.
func TestReapSparesWritesAfterScan(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		write func(c *Client, name []string) error
	}{
		{"rebind", func(c *Client, name []string) error {
			return c.Rebind(ctx, name, []byte("rebound"), nil, false, 0)
		}},
		{"renew", func(c *Client, name []string) error {
			_, err := c.RenewLease(ctx, name, time.Minute.Milliseconds())
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := startTestNode(t, jgroups.NewFabric(), "n1", "g-reap-"+tc.name, "")
			c := dialNode(t, n)
			kept, lapsed := []string{"kept"}, []string{"lapsed"}
			if err := c.Bind(ctx, kept, []byte("v"), nil, time.Minute.Milliseconds()); err != nil {
				t.Fatal(err)
			}
			if err := c.Bind(ctx, lapsed, []byte("v"), nil, 1); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond) // past lapsed's 1 ms lease
			due := n.Store().ExpiredLeases(time.Now().Add(time.Hour).UnixMilli())
			if !slices.ContainsFunc(due, func(name []string) bool { return slices.Equal(name, kept) }) {
				t.Fatalf("scan found %v, want %v among them", due, kept)
			}
			if err := tc.write(c, kept); err != nil {
				t.Fatal(err)
			}
			n.reap(due)
			if !n.Store().Lookup(kept).Exists {
				t.Fatalf("%s after the scan, then the reap: the name was deleted", tc.name)
			}
			if n.Store().Lookup(lapsed).Exists {
				t.Fatal("a name still expired at the reap survived it")
			}
		})
	}
}

// The motivating race, swept: a name whose lease lapsed is rebound
// without a lease while a reaper pass (scan, then expire) runs alongside
// at seeded offsets. No interleaving may lose the rebound name.
func TestReapRebindSweepLosesNothing(t *testing.T) {
	ctx := context.Background()
	n := startTestNode(t, jgroups.NewFabric(), "n1", "g-reap-sweep", "")
	c := dialNode(t, n)
	rng := rand.New(rand.NewPCG(17, 32))
	lost := 0
	for i := 0; i < 200; i++ {
		name := []string{fmt.Sprintf("s%03d", i)}
		if err := c.Bind(ctx, name, []byte("leased"), nil, 1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // past the 1 ms lease
		scanAt := time.Duration(rng.IntN(300)) * time.Microsecond
		reapAt := time.Duration(rng.IntN(1000)) * time.Microsecond
		rebindAt := time.Duration(rng.IntN(500)) * time.Microsecond
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(scanAt)
			due := n.Store().ExpiredLeases(time.Now().UnixMilli())
			time.Sleep(reapAt)
			n.reap(due)
		}()
		time.Sleep(rebindAt)
		if err := c.Rebind(ctx, name, []byte("kept"), nil, false, 0); err != nil {
			t.Fatal(err)
		}
		<-done
		if v := n.Store().Lookup(name); !v.Exists || string(v.Obj) != "kept" {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d of 200 rebound names lost to the reaper", lost)
	}
}

// TestReapScanAllocs is an allocations gate cited by check.sh: the
// reaper's scan costs nothing on a store that holds no lease, and only
// what it returns otherwise (the per-entry path copies cost 10 000
// allocations per 500 ms tick on 10 000 entries).
func TestReapScanAllocs(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10000; i++ {
		apply(t, s, &Op{Kind: OpBind, Name: []string{fmt.Sprintf("k%05d", i)}, Obj: []byte("v")})
	}
	// A lease granted and gone: one scan walks, finds none, and stops
	// the next ones from walking.
	apply(t, s, &Op{Kind: OpBind, Name: []string{"brief"}, LeaseMillis: 1, Now: 1})
	apply(t, s, &Op{Kind: OpUnbind, Name: []string{"brief"}})
	if due := s.ExpiredLeases(100); len(due) != 0 || s.leased.Load() {
		t.Fatalf("scan of an unleased store: %v, leased flag %v", due, s.leased.Load())
	}
	if a := testing.AllocsPerRun(20, func() { s.ExpiredLeases(100) }); a != 0 {
		t.Fatalf("scan of 10 000 unleased entries: %.0f allocs, want 0", a)
	}

	apply(t, s, &Op{Kind: OpBind, Name: []string{"due"}, LeaseMillis: 1, Now: 1})
	var due [][]string
	if a := testing.AllocsPerRun(20, func() { due = s.ExpiredLeases(100) }); a > 4 {
		t.Fatalf("scan with one due lease: %.0f allocs, want <= 4", a)
	}
	if len(due) != 1 || len(due[0]) != 1 || due[0][0] != "due" {
		t.Fatalf("scan found %v, want [[due]]", due)
	}

	// Nested names come back whole, each with its own backing array.
	apply(t, s, &Op{Kind: OpCreateCtx, Name: []string{"dir"}})
	apply(t, s, &Op{Kind: OpBind, Name: []string{"dir", "a"}, LeaseMillis: 1, Now: 1})
	apply(t, s, &Op{Kind: OpBind, Name: []string{"dir", "b"}, LeaseMillis: 1, Now: 1})
	apply(t, s, &Op{Kind: OpBind, Name: []string{"dir", "later"}, LeaseMillis: 1000, Now: 1})
	got := map[string]bool{}
	for _, name := range s.ExpiredLeases(100) {
		got[fmt.Sprint(name)] = true
	}
	if len(got) != 3 || !got["[due]"] || !got["[dir a]"] || !got["[dir b]"] {
		t.Fatalf("scan found %v, want [due], [dir a], [dir b]", got)
	}
}

// OpExpire deletes only an entry still expired at its Now; every other
// case applies as a successful no-op that still consumes a version.
func TestOpExpireAppliesOnlyWhileExpired(t *testing.T) {
	s := NewStore()
	apply(t, s, &Op{Kind: OpBind, Name: []string{"leased"}, Obj: []byte("v"), LeaseMillis: 100, Now: 1000})
	apply(t, s, &Op{Kind: OpBind, Name: []string{"plain"}, Obj: []byte("v")})
	for _, op := range []*Op{
		{Kind: OpExpire, Name: []string{"leased"}, Now: 1099}, // not yet
		{Kind: OpExpire, Name: []string{"plain"}, Now: 5000},  // no lease
		{Kind: OpExpire, Name: []string{"ghost"}, Now: 5000},  // gone
		{Kind: OpExpire, Name: []string{"no", "parent"}, Now: 5000},
	} {
		before := s.Version()
		if ch, _, errStr := s.ApplyVersioned(op); errStr != "" || len(ch) != 0 || s.Version() != before+1 {
			t.Fatalf("expire %v at %d: changes %v, err %q, version %d -> %d", op.Name, op.Now, ch, errStr, before, s.Version())
		}
	}
	if !s.Lookup([]string{"leased"}).Exists || !s.Lookup([]string{"plain"}).Exists {
		t.Fatal("an expire that did not apply deleted its name")
	}
	ch := apply(t, s, &Op{Kind: OpExpire, Name: []string{"leased"}, Now: 1100})
	if len(ch) != 1 || ch[0].Kind != OpUnbind || string(ch[0].Old) != "v" {
		t.Fatalf("expire at the lease's end: changes %+v, want one unbind", ch)
	}
	if s.Lookup([]string{"leased"}).Exists {
		t.Fatal("expired name survived its OpExpire")
	}
}

package hdns

// Rejoin-after-crash under scripted partitions: the fault package's
// FabricSchedule drives the jgroups fabric through degrade → split →
// heal while one replica crashes mid-partition and restarts from its
// snapshot. The restarted node must converge to the primary partition's
// state — including discarding a stale minority write that survived in
// its snapshot file.

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"gondi/internal/fault"
	"gondi/internal/jgroups"
)

func TestChaosPartitionCrashRejoin(t *testing.T) {
	ctx := context.Background()
	snap := filepath.Join(t.TempDir(), "n3.snap")
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "n1", "gchaos", "")
	startTestNode(t, f, "n2", "gchaos", "")
	n3 := startTestNode(t, f, "n3", "gchaos", snap)
	waitFor(t, 5*time.Second, "group of 3", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 3
	})
	c1 := dialNode(t, n1)
	c3 := dialNode(t, n3)
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"base"}, Obj: []byte("v0")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "pre-fault sync", func() bool {
		return n3.Store().Lookup([]string{"base"}).Exists
	})

	// Scripted fault: degrade delivery, then split {n1,n2} | {n3}.
	lag := 5 * time.Millisecond
	split := &fault.FabricSchedule{Fabric: f, Steps: []fault.FabricStep{
		{Delay: &lag},
		{After: 100 * time.Millisecond, Partition: [][]jgroups.Address{{"n1", "n2"}, {"n3"}}},
	}}
	if err := split.Run(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "split views", func() bool {
		v1, v3 := n1.Channel().View(), n3.Channel().View()
		return v1 != nil && len(v1.Members) == 2 && v3 != nil && len(v3.Members) == 1
	})

	// Both sides write; then the minority node crashes, taking its
	// (doomed) write into the snapshot file.
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"majority-write"}, Obj: []byte("keep")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Do(ctx, &Op{Kind: OpBind, Name: []string{"minority-write"}, Obj: []byte("lose")}); err != nil {
		t.Fatal(err)
	}
	c3.Close()
	if err := n3.Close(); err != nil {
		t.Fatal(err)
	}
	// The majority keeps serving writes while n3 is down.
	if _, err := c1.Do(ctx, &Op{Kind: OpBind, Name: []string{"during-crash"}, Obj: []byte("v1")}); err != nil {
		t.Fatal(err)
	}

	// Heal the fabric (scripted), then restart the crashed node from its
	// snapshot. It boots with stale state and must resync via transfer.
	noLag := time.Duration(0)
	heal := &fault.FabricSchedule{Fabric: f, Steps: []fault.FabricStep{
		{Delay: &noLag, Heal: true},
	}}
	wait := heal.RunAsync(ctx)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	n3b := startTestNode(t, f, "n3b", "gchaos", snap)
	waitFor(t, 8*time.Second, "rejoined group of 3", func() bool {
		v := n3b.Channel().View()
		return v != nil && len(v.Members) == 3
	})
	waitFor(t, 5*time.Second, "rejoin resync to primary state", func() bool {
		s := n3b.Store()
		return s.Lookup([]string{"base"}).Exists &&
			s.Lookup([]string{"majority-write"}).Exists &&
			s.Lookup([]string{"during-crash"}).Exists &&
			!s.Lookup([]string{"minority-write"}).Exists
	})
	waitFor(t, 3*time.Second, "full store convergence", func() bool {
		return storesEqual(t, n1.Store(), n3b.Store(), nil)
	})

	// Post-rejoin writes flow both ways again.
	c3b := dialNode(t, n3b)
	if _, err := c3b.Do(ctx, &Op{Kind: OpBind, Name: []string{"after-rejoin"}, Obj: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 4*time.Second, "post-rejoin replication", func() bool {
		return n1.Store().Lookup([]string{"after-rejoin"}).Exists
	})
}

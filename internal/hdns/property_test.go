package hdns

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gondi/internal/jgroups"
)

// Property: two live replicas under a random mixed workload converge to
// semantically identical stores once traffic quiesces — the §4.1
// consistency claim, stated per stack for what that stack promises
// (DESIGN.md "HDNS consistency model").
//
// Virtual synchrony gives the group one total order, so writers may
// enter through both nodes and hit the same keys.
func TestRandomOpsReplicaConvergence(t *testing.T) {
	stack := testStack()
	stack.Mode = jgroups.ModeVirtualSynchrony
	randomOpsConverge(t, "rc", stack, 2)
}

// Bimodal multicast gives per-sender FIFO only (a sender also delivers
// its own message inside Send), so two nodes writing one key may apply
// the pair in opposite orders. What it does promise is convergence when
// every write enters through one node; reads still go to either.
func TestRandomOpsReplicaConvergenceBimodalOneWriter(t *testing.T) {
	randomOpsConverge(t, "rb", testStack(), 1)
}

// randomOpsConverge drives 300 seeded ops at a 2-node group — writes
// through the first writerNodes nodes, searches through both — and
// waits for the stores to compare equal.
func randomOpsConverge(t *testing.T, group string, stack jgroups.Config, writerNodes int) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n1 := startNode(t, f, group+"-n1", group, "", stack)
	n2 := startNode(t, f, group+"-n2", group, "", stack)
	waitFor(t, 4*time.Second, "group", func() bool {
		v := n1.Channel().View()
		return v != nil && len(v.Members) == 2
	})
	c1 := dialNode(t, n1)
	c2 := dialNode(t, n2)
	clients := []*Client{c1, c2}

	r := rand.New(rand.NewSource(20060101))
	names := make([][]string, 12)
	for i := range names {
		names[i] = []string{fmt.Sprintf("k%d", i)}
	}
	ctxNames := [][]string{{"d0"}, {"d1"}}
	for _, cn := range ctxNames {
		_ = c1.CreateCtx(ctx, cn, nil)
	}
	for i := 0; i < 12; i++ {
		names = append(names, []string{ctxNames[i%2][0], fmt.Sprintf("n%d", i)})
	}

	const ops = 300
	for i := 0; i < ops; i++ {
		c := clients[r.Intn(writerNodes)]
		name := names[r.Intn(len(names))]
		switch r.Intn(5) {
		case 0:
			_ = c.Bind(ctx, name, []byte(fmt.Sprintf("v%d", i)), map[string][]string{"seq": {fmt.Sprint(i)}}, 0)
		case 1:
			_ = c.Rebind(ctx, name, []byte(fmt.Sprintf("r%d", i)), nil, false, 0)
		case 2:
			_ = c.Unbind(ctx, name)
		case 3:
			_ = c.ModAttrs(ctx, name, []ModRec{{Op: 0, ID: "touched", Vals: []string{fmt.Sprint(i)}}})
		case 4:
			_, _ = clients[r.Intn(2)].Search(ctx, nil, "(seq=*)", 2, 0)
		}
	}

	// Quiesce, then compare the replicas structurally.
	waitFor(t, 6*time.Second, "replica convergence", func() bool {
		return storesEqual(t, n1.Store(), n2.Store(), nil)
	})
	if n1.Store().Len() == 0 {
		t.Fatal("degenerate run: store empty")
	}
	t.Logf("converged with %d entries after %d random ops", n1.Store().Len(), ops)
}

// Property: a replica that joins mid-workload ends up identical to the
// replicas that saw all traffic (state transfer + tail replication).
func TestLateJoinerConvergence(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	n1 := startTestNode(t, f, "lj-n1", "lj", "")
	c1 := dialNode(t, n1)
	for i := 0; i < 40; i++ {
		if err := c1.Bind(ctx, []string{fmt.Sprintf("pre%d", i)}, []byte("x"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	n2 := startTestNode(t, f, "lj-n2", "lj", "")
	// Keep writing while the joiner synchronizes.
	for i := 0; i < 40; i++ {
		if err := c1.Bind(ctx, []string{fmt.Sprintf("post%d", i)}, []byte("y"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 6*time.Second, "late joiner catches up", func() bool {
		return n2.Store().Len() == 80 && storesEqual(t, n1.Store(), n2.Store(), nil)
	})
}

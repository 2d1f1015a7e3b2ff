package hdns

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"gondi/internal/jgroups"
)

// Property: two live replicas under a random mixed workload converge to
// semantically identical stores once traffic quiesces — the §4.1
// consistency claim (DESIGN.md "HDNS consistency model"). The view
// coordinator sequences every write, so on either stack writers may
// enter through both nodes and hit the same keys.
func TestRandomOpsReplicaConvergence(t *testing.T) {
	for _, stack := range testStacks() {
		t.Run(stack.Mode.String(), func(t *testing.T) {
			randomOpsConverge(t, "rc", stack, 2)
		})
	}
}

// Property: two writes to one key that enter through different nodes at
// the same instant are applied in the same order on both replicas, on
// either stack. Each of 150 seeded rounds rebinds a fresh key through n1
// and n2 concurrently; once traffic quiesces no key may differ between
// the stores. The coordinator sequences its own writes and the ones its
// peer forwards on one goroutine, and every replica applies them in
// sequence order, which is what makes this hold.
func TestConcurrentRebindsConverge(t *testing.T) {
	ctx := context.Background()
	for _, stack := range testStacks() {
		t.Run(stack.Mode.String(), func(t *testing.T) {
			f := jgroups.NewFabric()
			n1 := startNode(t, f, "vsr-n1", "vsr", "", stack)
			n2 := startNode(t, f, "vsr-n2", "vsr", "", stack)
			waitFor(t, 4*time.Second, "group", func() bool {
				v := n1.Channel().View()
				return v != nil && len(v.Members) == 2
			})
			clients := []*Client{dialNode(t, n1), dialNode(t, n2)}

			const rounds = 150
			r := rand.New(rand.NewSource(20061006))
			for i := 0; i < rounds; i++ {
				name := []string{fmt.Sprintf("k%d", i)}
				start := make(chan struct{})
				errs := make(chan error, len(clients))
				var wg sync.WaitGroup
				for _, j := range r.Perm(len(clients)) {
					c, obj := clients[j], []byte(fmt.Sprintf("n%d-%d", j+1, r.Int63()))
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						errs <- c.Rebind(ctx, name, obj, nil, false, 0)
					}()
				}
				close(start)
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatalf("round %d: rebind: %v", i, err)
					}
				}
			}

			waitFor(t, 6*time.Second, "replicas at one version", func() bool {
				return n1.Store().Version() == n2.Store().Version()
			})
			divergent := 0
			for i := 0; i < rounds; i++ {
				name := []string{fmt.Sprintf("k%d", i)}
				if !reflect.DeepEqual(n1.Store().Lookup(name), n2.Store().Lookup(name)) {
					divergent++
				}
			}
			if divergent != 0 {
				t.Fatalf("%d of %d keys differ between the replicas at version %d", divergent, rounds, n1.Store().Version())
			}
		})
	}
}

// Property: with every write entering through one node of a bimodal
// group, the replicas converge; reads still go to either node.
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

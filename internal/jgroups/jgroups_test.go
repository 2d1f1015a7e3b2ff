package jgroups

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig(mode Mode) Config {
	return Config{
		Mode:              mode,
		HeartbeatInterval: 40 * time.Millisecond,
		SuspectAfter:      350 * time.Millisecond,
		GossipInterval:    30 * time.Millisecond,
		RetransmitTimeout: 50 * time.Millisecond,
		MergeInterval:     80 * time.Millisecond,
		JoinTimeout:       3 * time.Second,
	}
}

// node couples a channel with a recorded delivery log.
type node struct {
	ch *Channel

	mu     sync.Mutex
	log    []string // "src:payload"
	stream []string // log with each installed view, "view:ID", in place
	views  []*View
	merges []MergeEvent
	state  []byte
}

func (n *node) deliveries() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.log))
	copy(out, n.log)
	return out
}

func (n *node) events() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.stream...)
}

func (n *node) lastView() *View {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.views) == 0 {
		return nil
	}
	return n.views[len(n.views)-1]
}

func (n *node) mergeEvents() []MergeEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]MergeEvent, len(n.merges))
	copy(out, n.merges)
	return out
}

// newNode builds an unconnected node over tr and the receiver that
// records into it.
func newNode(tr Transport, cfg Config) (*node, Receiver) {
	n := &node{ch: NewChannel(tr, cfg)}
	return n, Receiver{
		Deliver: func(src Address, payload []byte) {
			n.mu.Lock()
			n.log = append(n.log, fmt.Sprintf("%s:%s", src, payload))
			n.stream = append(n.stream, fmt.Sprintf("%s:%s", src, payload))
			n.mu.Unlock()
		},
		ViewChange: func(v *View) {
			n.mu.Lock()
			n.views = append(n.views, v)
			n.stream = append(n.stream, fmt.Sprintf("view:%d", v.ID))
			n.mu.Unlock()
		},
		GetState: func() []byte {
			n.mu.Lock()
			defer n.mu.Unlock()
			return append([]byte(nil), n.state...)
		},
		SetState: func(st []byte) {
			n.mu.Lock()
			n.state = append([]byte(nil), st...)
			n.mu.Unlock()
		},
		Merge: func(e MergeEvent) {
			n.mu.Lock()
			n.merges = append(n.merges, e)
			n.mu.Unlock()
		},
	}
}

func startNode(t *testing.T, f *Fabric, name string, cfg Config, group string) *node {
	t.Helper()
	return startNodeOn(t, f.Endpoint(Address(name)), cfg, group)
}

func startNodeOn(t *testing.T, tr Transport, cfg Config, group string) *node {
	t.Helper()
	n, r := newNode(tr, cfg)
	if err := n.ch.Connect(group, r); err != nil {
		t.Fatalf("connect %s: %v", tr.Addr(), err)
	}
	t.Cleanup(func() { n.ch.Close() })
	return n
}

// onLoop runs f on the channel's protocol goroutine, where protocol
// state may be read, and waits for it.
func onLoop(c *Channel, f func()) {
	done := make(chan struct{})
	if c.post(func() { f(); close(done) }) {
		<-done
	}
}

// waitFor polls cond until true or the deadline elapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSingletonConnect(t *testing.T) {
	f := NewFabric()
	n := startNode(t, f, "a", testConfig(ModeVirtualSynchrony), "g")
	v := n.ch.View()
	if v == nil || len(v.Members) != 1 || v.Coord() != "a" {
		t.Fatalf("view = %v", v)
	}
	if !n.ch.IsCoordinator() {
		t.Error("singleton must coordinate")
	}
	// Self-delivery.
	if err := n.ch.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "self delivery", func() bool {
		return len(n.deliveries()) == 1
	})
	if got := n.deliveries()[0]; got != "a:hello" {
		t.Errorf("delivery = %q", got)
	}
}

func TestJoinAndBroadcast(t *testing.T) {
	for _, mode := range []Mode{ModeVirtualSynchrony, ModeBimodal} {
		t.Run(mode.String(), func(t *testing.T) {
			f := NewFabric()
			a := startNode(t, f, "a", testConfig(mode), "g")
			b := startNode(t, f, "b", testConfig(mode), "g")
			c := startNode(t, f, "c", testConfig(mode), "g")
			for _, n := range []*node{a, b, c} {
				waitFor(t, 3*time.Second, "3-member view", func() bool {
					v := n.ch.View()
					return v != nil && len(v.Members) == 3
				})
			}
			if err := a.ch.Send([]byte("m1")); err != nil {
				t.Fatal(err)
			}
			if err := b.ch.Send([]byte("m2")); err != nil {
				t.Fatal(err)
			}
			if err := c.ch.Send([]byte("m3")); err != nil {
				t.Fatal(err)
			}
			for _, n := range []*node{a, b, c} {
				waitFor(t, 3*time.Second, "3 deliveries", func() bool {
					return len(n.deliveries()) == 3
				})
			}
		})
	}
}

// All members deliver the identical sequence, on both stacks: one
// sequencer numbers every message, whichever member sent it.
func TestTotalOrder(t *testing.T) {
	for _, mode := range []Mode{ModeVirtualSynchrony, ModeBimodal} {
		t.Run(mode.String(), func(t *testing.T) {
			f := NewFabric()
			cfg := testConfig(mode)
			nodes := []*node{
				startNode(t, f, "a", cfg, "g"),
				startNode(t, f, "b", cfg, "g"),
				startNode(t, f, "c", cfg, "g"),
			}
			for _, n := range nodes {
				waitFor(t, 3*time.Second, "view", func() bool {
					v := n.ch.View()
					return v != nil && len(v.Members) == 3
				})
			}
			const perNode = 30
			var wg sync.WaitGroup
			for i, n := range nodes {
				wg.Add(1)
				go func(i int, n *node) {
					defer wg.Done()
					for k := 0; k < perNode; k++ {
						if err := n.ch.Send([]byte(fmt.Sprintf("n%d-%d", i, k))); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(i, n)
			}
			wg.Wait()
			total := perNode * len(nodes)
			for _, n := range nodes {
				waitFor(t, 5*time.Second, "all deliveries", func() bool {
					return len(n.deliveries()) == total
				})
			}
			ref := nodes[0].deliveries()
			for i, n := range nodes[1:] {
				if !reflect.DeepEqual(ref, n.deliveries()) {
					t.Fatalf("node %d delivered a different order", i+1)
				}
			}
		})
	}
}

// A coordinator crash does not end the sequence: the survivor that takes
// over continues it from the highest seq any survivor delivered, so the
// sends made after the crash reach both survivors, in one order.
func TestSendsAfterCoordinatorFailover(t *testing.T) {
	for _, mode := range []Mode{ModeVirtualSynchrony, ModeBimodal} {
		t.Run(mode.String(), func(t *testing.T) {
			f := NewFabric()
			cfg := testConfig(mode)
			a := startNode(t, f, "a", cfg, "g")
			b := startNode(t, f, "b", cfg, "g")
			c := startNode(t, f, "c", cfg, "g")
			for _, n := range []*node{a, b, c} {
				waitFor(t, 3*time.Second, "view", func() bool {
					v := n.ch.View()
					return v != nil && len(v.Members) == 3
				})
			}
			for k := 0; k < 5; k++ {
				if err := a.ch.Send([]byte(fmt.Sprintf("m%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			a.ch.tr.Close() // coordinator crash
			waitFor(t, 5*time.Second, "failover", func() bool {
				vb, vc := b.ch.View(), c.ch.View()
				return vb != nil && vc != nil && len(vb.Members) == 2 && len(vc.Members) == 2 &&
					vb.Coord() == "b" && vc.Coord() == "b"
			})
			var wg sync.WaitGroup
			for _, n := range []*node{b, c} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := n.ch.Send([]byte("after")); err != nil {
						t.Errorf("%s sends after the crash: %v", n.ch.Addr(), err)
					}
				}()
			}
			wg.Wait()
			for _, n := range []*node{b, c} {
				waitFor(t, 3*time.Second, "every message delivered", func() bool {
					return len(n.deliveries()) == 7
				})
			}
			if db, dc := b.deliveries(), c.deliveries(); !reflect.DeepEqual(db, dc) {
				t.Fatalf("the survivors delivered different orders: b %v, c %v", db, dc)
			}
		})
	}
}

// A member's sends survive loss on both stacks: a lost forward is
// forwarded again and a lost sequenced message is repaired, and none is
// delivered twice or out of order.
func TestMemberSendsSurviveLoss(t *testing.T) {
	for _, mode := range []Mode{ModeVirtualSynchrony, ModeBimodal} {
		t.Run(mode.String(), func(t *testing.T) {
			f := NewFabric()
			cfg := testConfig(mode)
			nodes := []*node{
				startNode(t, f, "a", cfg, "g"),
				startNode(t, f, "b", cfg, "g"),
				startNode(t, f, "c", cfg, "g"),
			}
			for _, n := range nodes {
				waitFor(t, 3*time.Second, "view", func() bool {
					v := n.ch.View()
					return v != nil && len(v.Members) == 3
				})
			}
			f.SetLoss(0.3)
			const msgs = 40
			for k := 0; k < msgs; k++ {
				if err := nodes[1].ch.Send([]byte(fmt.Sprintf("m%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			f.SetLoss(0)
			want := make([]string, msgs)
			for k := range want {
				want[k] = fmt.Sprintf("b:m%d", k)
			}
			for _, n := range nodes {
				waitFor(t, 8*time.Second, "lossy member sends delivered", func() bool {
					return len(n.deliveries()) >= msgs
				})
				if got := n.deliveries(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s delivered %v", n.ch.Addr(), got)
				}
			}
		})
	}
}

// A member that restarts under its old address before the group has
// suspected it joins again and its sends reach everyone: it counts its
// messages from one again, so the group sees it leave before it joins.
func TestRestartedMemberSendsAgain(t *testing.T) {
	for _, mode := range []Mode{ModeVirtualSynchrony, ModeBimodal} {
		t.Run(mode.String(), func(t *testing.T) {
			f := NewFabric()
			cfg := testConfig(mode)
			a := startNode(t, f, "a", cfg, "g")
			b := startNode(t, f, "b", cfg, "g")
			c := startNode(t, f, "c", cfg, "g")
			waitFor(t, 3*time.Second, "view", func() bool {
				v := c.ch.View()
				return v != nil && len(v.Members) == 3
			})
			for k := 0; k < 3; k++ {
				if err := b.ch.Send([]byte(fmt.Sprintf("m%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			b2 := startNode(t, f, "b", cfg, "g") // replaces b's endpoint: a crash and restart
			if err := b2.ch.Send([]byte("again")); err != nil {
				t.Fatal(err)
			}
			for _, n := range []*node{a, c, b2} {
				waitFor(t, 3*time.Second, "the restarted member's send delivered", func() bool {
					d := n.deliveries()
					return len(d) > 0 && d[len(d)-1] == "b:again"
				})
			}
		})
	}
}

// Virtual synchrony with loss: NAK retransmission fills the gaps.
func TestRetransmission(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 3*time.Second, "view", func() bool {
		v := b.ch.View()
		return v != nil && len(v.Members) == 2
	})
	f.SetLoss(0.3)
	const msgs = 40
	for k := 0; k < msgs; k++ {
		if err := a.ch.Send([]byte(fmt.Sprintf("m%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	f.SetLoss(0) // let NAKs and repairs through reliably from here on
	waitFor(t, 8*time.Second, "lossy deliveries", func() bool {
		return len(b.deliveries()) == msgs
	})
	// Order must be intact.
	got := b.deliveries()
	for k := 0; k < msgs; k++ {
		if got[k] != fmt.Sprintf("a:m%d", k) {
			t.Fatalf("delivery %d = %q", k, got[k])
		}
	}
}

// Bimodal with loss: gossip anti-entropy repairs missing messages.
func TestBimodalGossipRepair(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeBimodal)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	c := startNode(t, f, "c", cfg, "g")
	for _, n := range []*node{a, b, c} {
		waitFor(t, 3*time.Second, "view", func() bool {
			v := n.ch.View()
			return v != nil && len(v.Members) == 3
		})
	}
	f.SetLoss(0.25)
	const msgs = 30
	for k := 0; k < msgs; k++ {
		if err := a.ch.Send([]byte(fmt.Sprintf("m%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	f.SetLoss(0)
	for _, n := range []*node{b, c} {
		waitFor(t, 8*time.Second, "gossip repair", func() bool {
			return len(n.deliveries()) == msgs
		})
		got := n.deliveries()
		for k := 0; k < msgs; k++ {
			if got[k] != fmt.Sprintf("a:m%d", k) {
				t.Fatalf("per-sender FIFO violated: %d = %q", k, got[k])
			}
		}
	}
}

func TestStateTransferOnJoin(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeBimodal)
	a := startNode(t, f, "a", cfg, "g")
	a.mu.Lock()
	a.state = []byte("golden-state")
	a.mu.Unlock()
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 3*time.Second, "state transfer", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return string(b.state) == "golden-state"
	})
}

func TestMemberCrashShrinksView(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 3*time.Second, "2-view", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 2
	})
	// Crash b without a leave message.
	b.ch.tr.Close()
	waitFor(t, 4*time.Second, "shrunk view", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 1
	})
	// The group still works.
	if err := a.ch.Send([]byte("alone")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "post-crash delivery", func() bool {
		d := a.deliveries()
		return len(d) > 0 && d[len(d)-1] == "a:alone"
	})
}

func TestCoordinatorFailover(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	c := startNode(t, f, "c", cfg, "g")
	for _, n := range []*node{a, b, c} {
		waitFor(t, 3*time.Second, "view", func() bool {
			v := n.ch.View()
			return v != nil && len(v.Members) == 3
		})
	}
	if !a.ch.IsCoordinator() {
		t.Fatal("a should coordinate (first member)")
	}
	a.ch.tr.Close() // coordinator crash
	waitFor(t, 5*time.Second, "failover", func() bool {
		vb, vc := b.ch.View(), c.ch.View()
		return vb != nil && vc != nil &&
			len(vb.Members) == 2 && len(vc.Members) == 2 &&
			vb.Coord() == "b" && vc.Coord() == "b"
	})
	// Survivors still multicast.
	if err := c.ch.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "post-failover delivery", func() bool {
		d := b.deliveries()
		return len(d) > 0 && d[len(d)-1] == "c:after"
	})
}

func TestGracefulLeave(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeBimodal)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 3*time.Second, "2-view", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 2
	})
	if err := b.ch.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "view after leave", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 1
	})
}

func TestPartitionAndPrimaryMerge(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeBimodal)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	c := startNode(t, f, "c", cfg, "g")
	for _, n := range []*node{a, b, c} {
		waitFor(t, 3*time.Second, "3-view", func() bool {
			v := n.ch.View()
			return v != nil && len(v.Members) == 3
		})
	}
	// Isolate c: {a,b} | {c}.
	f.Partition([]Address{"a", "b"}, []Address{"c"})
	waitFor(t, 5*time.Second, "partitioned views", func() bool {
		va, vc := a.ch.View(), c.ch.View()
		return va != nil && len(va.Members) == 2 && vc != nil && len(vc.Members) == 1 && vc.Coord() == "c"
	})
	// Diverge state: the majority side has the authoritative value.
	a.mu.Lock()
	a.state = []byte("primary-state")
	a.mu.Unlock()
	c.mu.Lock()
	c.state = []byte("stale-state")
	c.mu.Unlock()

	f.Heal()
	waitFor(t, 6*time.Second, "merged view", func() bool {
		for _, n := range []*node{a, b, c} {
			v := n.ch.View()
			if v == nil || len(v.Members) != 3 {
				return false
			}
		}
		return true
	})
	// PRIMARY PARTITION: {a,b} is larger, so c must resync and see a
	// non-primary merge event.
	waitFor(t, 5*time.Second, "c resynced", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return string(c.state) == "primary-state"
	})
	waitFor(t, 3*time.Second, "merge events", func() bool {
		return len(c.mergeEvents()) > 0 && len(a.mergeEvents()) > 0
	})
	if e := c.mergeEvents()[0]; e.Primary {
		t.Error("c was in the minority partition but flagged primary")
	}
	if e := a.mergeEvents()[0]; !e.Primary {
		t.Error("a was in the majority partition but flagged non-primary")
	}
	// The merged group multicasts again.
	if err := c.ch.Send([]byte("rejoined")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 4*time.Second, "post-merge delivery", func() bool {
		d := a.deliveries()
		return len(d) > 0 && d[len(d)-1] == "c:rejoined"
	})
}

func TestPacketGobRoundTrip(t *testing.T) {
	p := &Packet{
		Kind: kMergeView, Group: "g", Src: "a", Dest: "b", Seq: 42, From: "c",
		Payload: []byte("x"), View: &View{ID: 7, Members: []Address{"a", "b"}},
		Addrs: []Address{"a"}, Seqs: []uint64{1, 2}, Packets: []*Packet{{Kind: kData, Seq: 9}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	var back Packet
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != p.Kind || back.View.ID != 7 || len(back.Packets) != 1 || back.Packets[0].Seq != 9 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestUDPTransportPair(t *testing.T) {
	ta, err := NewUDPTransport("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewUDPTransport("127.0.0.1:0", []string{string(ta.Addr())})
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer(string(tb.Addr()))

	cfg := testConfig(ModeBimodal)
	a := &node{ch: NewChannel(ta, cfg)}
	if err := a.ch.Connect("u", Receiver{Deliver: func(src Address, p []byte) {
		a.mu.Lock()
		a.log = append(a.log, string(p))
		a.mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	defer a.ch.Close()

	b := &node{}
	b.ch = NewChannel(tb, cfg)
	if err := b.ch.Connect("u", Receiver{Deliver: func(src Address, p []byte) {
		b.mu.Lock()
		b.log = append(b.log, string(p))
		b.mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	defer b.ch.Close()

	waitFor(t, 4*time.Second, "udp 2-view", func() bool {
		va, vb := a.ch.View(), b.ch.View()
		return va != nil && vb != nil && len(va.Members) == 2 && len(vb.Members) == 2
	})
	if err := a.ch.Send([]byte("over-udp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "udp delivery", func() bool {
		return len(b.deliveries()) == 1 && b.deliveries()[0] == "over-udp"
	})
}

func TestFabricPartitionBlocksTraffic(t *testing.T) {
	f := NewFabric()
	e1 := f.Endpoint("x")
	e2 := f.Endpoint("y")
	f.Partition([]Address{"x"}, []Address{"y"})
	if err := e1.Send("y", &Packet{Kind: kData, Group: "g"}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-e2.Recv():
		t.Fatalf("partitioned packet delivered: %+v", p)
	case <-time.After(100 * time.Millisecond):
	}
	f.Heal()
	if err := e1.Send("y", &Packet{Kind: kData, Group: "g"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-e2.Recv():
	case <-time.After(time.Second):
		t.Fatal("healed packet not delivered")
	}
}

func TestFabricQueueGrowth(t *testing.T) {
	f := NewFabric()
	e1 := f.Endpoint("src")
	f.Endpoint("sink") // nobody reads: queue must grow without bound
	for i := 0; i < 500; i++ {
		if err := e1.Send("sink", &Packet{Kind: kData}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, "queue growth", func() bool {
		return f.QueueLen("sink") > 400
	})
}

// View change under traffic: members continuously multicast while a new
// member joins mid-stream. Virtual synchrony requires that the original
// members deliver identical total orders, and that the joiner's log is a
// contiguous suffix of that order (it must not see pre-join messages).
func TestJoinUnderTraffic(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 3*time.Second, "2-view", func() bool {
		v := b.ch.View()
		return v != nil && len(v.Members) == 2
	})

	stop := make(chan struct{})
	var sent atomic.Int64
	var wg sync.WaitGroup
	for _, n := range []*node{a, b} {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := n.ch.Send([]byte(fmt.Sprintf("m%d", i))); err == nil {
					sent.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(n)
	}
	time.Sleep(150 * time.Millisecond)
	c := startNode(t, f, "c", cfg, "g") // joins mid-stream
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	total := int(sent.Load())
	for _, n := range []*node{a, b} {
		waitFor(t, 5*time.Second, "all deliveries", func() bool {
			return len(n.deliveries()) >= total
		})
	}
	da, db := a.deliveries(), b.deliveries()
	if !reflect.DeepEqual(da, db) {
		t.Fatal("original members delivered different orders across the view change")
	}
	dc := c.deliveries()
	if len(dc) == 0 {
		t.Fatal("joiner delivered nothing")
	}
	// The joiner's log must be a contiguous suffix of the full order.
	tail := da[len(da)-len(dc):]
	if !reflect.DeepEqual(dc, tail) {
		t.Fatalf("joiner log is not a suffix: joiner %v vs tail %v", dc[:min(3, len(dc))], tail[:min(3, len(tail))])
	}
	// View changes are part of the stream: from the view that admitted
	// b on, a and b saw deliveries and views in one order, so the view
	// admitting c falls at the same point in both; c's stream starts at
	// that view.
	for _, n := range []*node{a, b, c} {
		n.mu.Lock()
		for i := 1; i < len(n.views); i++ {
			if n.views[i].ID <= n.views[i-1].ID {
				t.Errorf("%s: view IDs not increasing: %v then %v", n.ch.Addr(), n.views[i-1], n.views[i])
			}
		}
		n.mu.Unlock()
	}
	ea, eb, ec := a.events(), b.events(), c.events()
	if len(eb) == 0 || len(ec) == 0 {
		t.Fatal("b or c recorded no events")
	}
	from := func(ev []string, first string) []string {
		for i, e := range ev {
			if e == first {
				return ev[i:]
			}
		}
		return nil
	}
	if got := from(ea, eb[0]); !reflect.DeepEqual(got, eb) {
		t.Errorf("a and b disagree on where views fall in the stream: a %v vs b %v", around(got, eb), around(eb, got))
	}
	if got := from(ea, ec[0]); !reflect.DeepEqual(got, ec) {
		t.Errorf("c's stream is not a's from the view admitting c: a %v vs c %v", around(got, ec), around(ec, got))
	}
}

// around returns the slice of x near its first difference from y.
func around(x, y []string) []string {
	i := 0
	for i < len(x) && i < len(y) && x[i] == y[i] {
		i++
	}
	return x[max(0, i-2):min(len(x), i+3)]
}

// heldLink holds back every packet a member sends to one peer until
// release, then delivers them in order: a link delay the test ends.
type heldLink struct {
	Transport
	to Address

	mu      sync.Mutex
	holding bool
	held    []*Packet
}

func (l *heldLink) Send(dest Address, p *Packet) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holding && dest == l.to {
		cp := *p
		l.held = append(l.held, &cp)
		return nil
	}
	return l.Transport.Send(dest, p)
}

func (l *heldLink) hold() {
	l.mu.Lock()
	l.holding = true
	l.mu.Unlock()
}

func (l *heldLink) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.held {
		_ = l.Transport.Send(l.to, p)
	}
	l.held, l.holding = nil, false
}

// A member's send forwarded to the coordinator that arrives while a
// view-change flush runs is delivered after the flush, once. The
// coordinator holds every send while it flushes and drops the forward;
// the member, whose Send waits for its own delivery, forwards it again
// until it sees it in the stream. It was never sequenced, so no NAK
// could recover it.
func TestForwardedSendDuringFlushDelivered(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	a := startNode(t, f, "a", cfg, "g")
	link := &heldLink{Transport: f.Endpoint("b"), to: "a"}
	b := startNodeOn(t, link, cfg, "g")
	waitFor(t, 3*time.Second, "2-view", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 2
	})

	// b's forward is delayed on the b->a link while c's join starts a
	// flush at a; b's flush ack queues behind it, so the forward reaches
	// a mid-flush.
	link.hold()
	sent := make(chan error, 1)
	go func() { sent <- b.ch.Send([]byte("x")) }()
	waitFor(t, 3*time.Second, "the forward held on the link", func() bool {
		link.mu.Lock()
		defer link.mu.Unlock()
		return len(link.held) > 0
	})
	c, cr := newNode(f.Endpoint("c"), cfg)
	joined := make(chan error, 1)
	go func() { joined <- c.ch.Connect("g", cr) }()
	t.Cleanup(func() { c.ch.Close() })
	waitFor(t, 3*time.Second, "flush at the coordinator", func() bool {
		var flushing bool
		onLoop(a.ch, func() { flushing = a.ch.flushing })
		return flushing
	})
	link.release()
	if err := <-joined; err != nil {
		t.Fatalf("c joins: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node{a, b, c} {
		waitFor(t, 3*time.Second, "forwarded message delivered", func() bool {
			return reflect.DeepEqual(n.deliveries(), []string{"b:x"})
		})
	}
}

// Fabric delay injection slows delivery but loses nothing.
func TestFabricDelay(t *testing.T) {
	f := NewFabric()
	f.SetDelay(30 * time.Millisecond)
	cfg := testConfig(ModeVirtualSynchrony)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 5*time.Second, "view with delay", func() bool {
		v := b.ch.View()
		return v != nil && len(v.Members) == 2
	})
	start := time.Now()
	if err := a.ch.Send([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "delayed delivery", func() bool {
		return len(b.deliveries()) == 1
	})
	if time.Since(start) < 25*time.Millisecond {
		t.Error("delay not applied")
	}
}

// The coordinator's retransmission store must be pruned once members
// acknowledge delivery (via heartbeat digests) — otherwise a long-running
// virtual-synchrony group grows without bound.
func TestMsgStorePruning(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 3*time.Second, "view", func() bool {
		v := b.ch.View()
		return v != nil && len(v.Members) == 2
	})
	const msgs = 200
	for i := 0; i < msgs; i++ {
		if err := a.ch.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "deliveries", func() bool {
		return len(b.deliveries()) == msgs
	})
	// After a few heartbeat rounds the acks reach the coordinator and
	// the store shrinks far below the message count.
	waitFor(t, 3*time.Second, "store pruned", func() bool {
		var n int
		onLoop(a.ch, func() { n = len(a.ch.msgStore) })
		return n < msgs/4
	})
}

// The repair store every member keeps is bounded.
func TestBimodalStoreBounded(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeBimodal)
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	waitFor(t, 3*time.Second, "view", func() bool {
		v := b.ch.View()
		return v != nil && len(v.Members) == 2
	})
	for i := 0; i < bimodalStoreMax+500; i++ {
		if err := a.ch.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "deliveries", func() bool {
		return len(b.deliveries()) == bimodalStoreMax+500
	})
	var n int
	onLoop(b.ch, func() { n = len(b.ch.msgStore) })
	if n > bimodalStoreMax {
		t.Fatalf("repair store grew to %d (cap %d)", n, bimodalStoreMax)
	}
}

// Two processes founding the same group concurrently (both miss each
// other's discovery window) end up in one merged group — the
// self-organization property the HDNS deployment story relies on.
func TestConcurrentFoundersMerge(t *testing.T) {
	f := NewFabric()
	cfg := testConfig(ModeBimodal)
	// Partition the fabric so both found singleton groups.
	f.Partition([]Address{"a"}, []Address{"b"})
	a := startNode(t, f, "a", cfg, "g")
	b := startNode(t, f, "b", cfg, "g")
	va, vb := a.ch.View(), b.ch.View()
	if len(va.Members) != 1 || len(vb.Members) != 1 {
		t.Fatalf("expected two singletons, got %v / %v", va, vb)
	}
	f.Heal()
	waitFor(t, 6*time.Second, "founders merged", func() bool {
		va, vb := a.ch.View(), b.ch.View()
		return va != nil && vb != nil && len(va.Members) == 2 && len(vb.Members) == 2 &&
			va.Coord() == vb.Coord()
	})
	// The merged group multicasts.
	if err := a.ch.Send([]byte("joined-up")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "post-merge delivery", func() bool {
		d := b.deliveries()
		return len(d) > 0 && d[len(d)-1] == "a:joined-up"
	})
}

// A fast producer multicasting to a slow consumer is the Figure 5
// storm: before the send window existed, the lagging member buffered
// without bound while service times grew, and goodput collapsed. With
// bounded buffers the sender runs at the group's drain rate instead:
// every message still arrives, the receiver's buffers stay under their
// caps, and the sender's outstanding credit never exceeds the window.
func TestBoundedBufferStormSurvives(t *testing.T) {
	const (
		storm      = 300
		window     = 16
		maxPending = 64
	)
	f := NewFabric()
	cfg := testConfig(ModeBimodal)
	cfg.SendWindow = window
	cfg.MaxPending = maxPending
	a := startNode(t, f, "a", cfg, "g")

	// The slow consumer: each delivery holds the receive path for 2ms,
	// like a replica whose apply loop has real work to do.
	var slowDelivered atomic.Int64
	b := &node{}
	b.ch = NewChannel(f.Endpoint("b"), cfg)
	if err := b.ch.Connect("g", Receiver{
		Deliver: func(src Address, payload []byte) {
			time.Sleep(2 * time.Millisecond)
			slowDelivered.Add(1)
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.ch.Close() })
	waitFor(t, 3*time.Second, "2-member view", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 2
	})

	// Watch the invariants while the storm runs.
	stopWatch := make(chan struct{})
	var maxOutstanding, maxBuffered atomic.Int64
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if n := int64(a.ch.outstanding()); n > maxOutstanding.Load() {
				maxOutstanding.Store(n)
			}
			if n := int64(b.ch.pendingLen()); n > maxBuffered.Load() {
				maxBuffered.Store(n)
			}
		}
	}()

	for i := 0; i < storm; i++ {
		if err := a.ch.Send([]byte("x")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 15*time.Second, "slow member absorbs the storm", func() bool {
		return slowDelivered.Load() == storm
	})
	close(stopWatch)
	<-watchDone

	if n := maxOutstanding.Load(); n > window+1 {
		t.Errorf("sender outstanding peaked at %d, window is %d", n, window)
	}
	if n := maxBuffered.Load(); n > maxPending {
		t.Errorf("slow member buffered %d packets, cap is %d", n, maxPending)
	}
	if got := len(a.deliveries()); got != storm {
		t.Errorf("sender self-delivered %d of %d", got, storm)
	}
}

// The virtual-synchrony storm: a member forwards a burst to the
// coordinator while another member is slow, so the coordinator's window
// stays full. Forwarded sends were already answered at their member, so
// the coordinator sequences them at once instead of parking them behind
// the window: what it parks stays bounded by its own callers blocked in
// Send, and every message still reaches the slow member.
func TestVirtualSynchronyStormParksOnlyLocalSends(t *testing.T) {
	const (
		senders = 2   // goroutines per sending member
		fwd     = 200 // forwarded sends per goroutine on c
		local   = 20  // local sends per goroutine on the coordinator
		total   = senders * (fwd + local)
	)
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	cfg.SendWindow = 16
	cfg.MaxPending = 64
	a := startNode(t, f, "a", cfg, "g")
	var slowDelivered atomic.Int64
	b := NewChannel(f.Endpoint("b"), cfg)
	if err := b.Connect("g", Receiver{Deliver: func(Address, []byte) {
		time.Sleep(time.Millisecond)
		slowDelivered.Add(1)
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := startNode(t, f, "c", cfg, "g")
	waitFor(t, 3*time.Second, "3-member view", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 3
	})

	stopWatch := make(chan struct{})
	var maxParked int
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(2 * time.Millisecond):
			}
			onLoop(a.ch, func() { maxParked = max(maxParked, len(a.ch.parked)) })
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 2*senders)
	for _, s := range []struct {
		n  *node
		of int
	}{{c, fwd}, {a, local}} {
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < s.of; i++ {
					if err := s.n.ch.Send([]byte("x")); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, 15*time.Second, "every member delivers the storm", func() bool {
		return slowDelivered.Load() == total && len(c.deliveries()) == total
	})
	close(stopWatch)
	<-watchDone
	if maxParked > senders {
		t.Errorf("coordinator parked %d sends, its own callers are %d", maxParked, senders)
	}
}

// A member's sends are bounded where they start: each Send waits for its
// own delivery, so the forwards the stream has not yet shown the member
// never outnumber its callers blocked in Send, however far behind a slow
// member holds the coordinator's window.
func TestMemberForwardsBoundedByCallers(t *testing.T) {
	const (
		callers = 3
		each    = 100
	)
	f := NewFabric()
	cfg := testConfig(ModeVirtualSynchrony)
	cfg.SendWindow = 16
	a := startNode(t, f, "a", cfg, "g")
	b := NewChannel(f.Endpoint("b"), cfg)
	if err := b.Connect("g", Receiver{Deliver: func(Address, []byte) { time.Sleep(time.Millisecond) }}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := startNode(t, f, "c", cfg, "g")
	waitFor(t, 3*time.Second, "3-member view", func() bool {
		v := a.ch.View()
		return v != nil && len(v.Members) == 3
	})
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	var maxFwd int
	go func() {
		defer close(watchDone)
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(time.Millisecond):
			}
			onLoop(c.ch, func() { maxFwd = max(maxFwd, len(c.ch.fwd)) })
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.ch.Send([]byte("x")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopWatch)
	<-watchDone
	if maxFwd > callers {
		t.Errorf("member held %d unseen forwards, its callers are %d", maxFwd, callers)
	}
	if got := len(c.deliveries()); got != callers*each {
		t.Errorf("member delivered %d of its %d sends", got, callers*each)
	}
}

package ptest_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/ptest"
)

// TestHDNSDurabilityConformance runs the storage-fault contract against
// a real HDNS replica group on the in-process fabric. The group is
// anchored by one durable replica (snapshot + WAL on disk); the repair
// phase adds a memory-only peer, cuts the durable replica's power, flips
// bits in its WAL, and expects the restart to quarantine and then
// re-anchor from the peer.
func TestHDNSDurabilityConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("crash/restart cycles are slow")
	}
	ptest.RunDurabilityConformance(t, func(rt *testing.T) *ptest.DurabilityWorld {
		dir := rt.TempDir()
		f := jgroups.NewFabric()
		stack := jgroups.DefaultConfig()
		stack.HeartbeatInterval = 40 * time.Millisecond
		stack.SuspectAfter = 400 * time.Millisecond
		stack.GossipInterval = 30 * time.Millisecond
		stack.MergeInterval = 80 * time.Millisecond

		// durable is the group's disk-backed replica; peers any
		// memory-only replicas added later. epoch names transport
		// endpoints uniquely across restarts.
		var (
			durable *hdns.Node
			peers   []*hdns.Node
			epoch   int
		)
		snapPath := filepath.Join(dir, "g0.snap")
		walDir := filepath.Join(dir, "wal-g0")

		boot := func(t *testing.T) {
			epoch++
			n, err := hdns.NewNode(hdns.NodeConfig{
				Group:            "durconf",
				Transport:        f.Endpoint(jgroups.Address(fmt.Sprintf("d%d", epoch))),
				Stack:            stack,
				ListenAddr:       "127.0.0.1:0",
				SnapshotPath:     snapPath,
				WALDir:           walDir,
				SnapshotInterval: time.Hour, // the suite syncs explicitly
				WriteTimeout:     5 * time.Second,
			})
			if err != nil {
				t.Fatalf("boot durable replica: %v", err)
			}
			durable = n
			// Cleanups belong to the factory scope: a subtest-scoped one
			// would kill a replica restarted in phase 1 as soon as that
			// phase ends, sawing off the world under the later phases.
			rt.Cleanup(func() { n.Kill() })
		}
		boot(rt)

		return &ptest.DurabilityWorld{
			Open: func(t *testing.T, id string) (core.DirContext, error) {
				c, err := hdnssp.Open(context.Background(), durable.Addr(),
					map[string]any{core.EnvPoolID: t.Name() + id})
				if err == nil {
					t.Cleanup(func() { c.Close() })
				}
				return c, err
			},
			Sync: func(t *testing.T) {
				if err := durable.SyncDurable(); err != nil {
					t.Fatalf("sync: %v", err)
				}
			},
			Crash: func(t *testing.T) {
				dead := jgroups.Address(fmt.Sprintf("d%d", epoch))
				durable.Kill()
				// A real restart outlives failure detection: wait for any
				// surviving peer to suspect the dead replica and take over
				// as coordinator, so the restarted node rejoins an existing
				// group (and its state transfer) instead of founding a
				// singleton next to it.
				for _, p := range peers {
					deadline := time.Now().Add(5 * time.Second)
					for {
						v := p.Channel().View()
						if v != nil && !v.Contains(dead) {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("peer never suspected crashed replica %s", dead)
						}
						time.Sleep(15 * time.Millisecond)
					}
				}
			},
			Restart: boot,
			Corrupt: func(t *testing.T) {
				segs, err := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
				if err != nil || len(segs) == 0 {
					t.Fatalf("no WAL segments to corrupt: %v", err)
				}
				b, err := os.ReadFile(segs[0])
				if err != nil {
					t.Fatal(err)
				}
				b[12] ^= 0x01 // first record's payload: CRC mismatch, not a torn tail
				if err := os.WriteFile(segs[0], b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			AddReplica: func(t *testing.T) {
				n, err := hdns.NewNode(hdns.NodeConfig{
					Group:      "durconf",
					Transport:  f.Endpoint(jgroups.Address(fmt.Sprintf("p%d", len(peers)))),
					Stack:      stack,
					ListenAddr: "127.0.0.1:0",
				})
				if err != nil {
					t.Fatalf("add replica: %v", err)
				}
				rt.Cleanup(func() { n.Close() })
				peers = append(peers, n)
				want := durable.Store().Len()
				deadline := time.Now().Add(5 * time.Second)
				for n.Store().Len() < want {
					if time.Now().After(deadline) {
						t.Fatalf("peer never pulled state (%d of %d)", n.Store().Len(), want)
					}
					time.Sleep(15 * time.Millisecond)
				}
			},
			Damaged:  func() bool { return durable.Damage().Corrupt() },
			Repaired: func() bool { return durable.Repairs() > 0 },
		}
	})
}

package hdns

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/fault"
	"gondi/internal/jgroups"
	"gondi/internal/wal"
)

// The full crash-point matrix: power loss at every durability boundary
// of append/rotate/snapshot/prune, each followed by a restart that must
// lose no acked write, keep the version chain consecutive, and never
// mistake a pure crash for corruption.
func TestCrashPointMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is O(boundaries) restarts")
	}
	res, err := runCrashPointDrill(t.TempDir(), crashDrillConfig{
		Entries:   24,
		CompactAt: []int{8, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != res.Boundaries || res.Boundaries == 0 {
		t.Fatalf("matrix incomplete: %+v", res)
	}
	if res.LostAcked > 0 {
		t.Fatalf("%d acked writes lost across the matrix: %+v", res.LostAcked, res)
	}
	if res.Quarantines > 0 {
		t.Fatalf("a pure crash was classified as corruption %d times: %+v", res.Quarantines, res)
	}
	if res.BrokenChains > 0 {
		t.Fatalf("%d restarts restored a broken version chain: %+v", res.BrokenChains, res)
	}
	if res.TornTails == 0 {
		t.Fatalf("no crash point tore the WAL tail; the matrix is not hitting append writes: %+v", res)
	}
}

// seedState builds a closed, clean durable state of n entries under dir
// and returns (snapshotPath, walDir). tail entries live only in the WAL.
func seedState(t *testing.T, dir string, n, tail int) (string, string) {
	t.Helper()
	snap := filepath.Join(dir, "replica.snap")
	walDir := filepath.Join(dir, "wal")
	if err := buildReplicaState(snap, walDir, n, tail); err != nil {
		t.Fatal(err)
	}
	return snap, walDir
}

// Mid-log WAL corruption on a dirty boot must quarantine — typed, never
// a refusal to start — and keep the records before the damage.
func TestOpenQuarantinesCorruptWAL(t *testing.T) {
	dir := t.TempDir()
	snap, walDir := seedState(t, dir, 40, 30)
	// No clean marker was written (buildReplicaState closes the log
	// directly), so this boot scrubs. Corrupt an early WAL record.
	segs, err := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[12] ^= 0x01
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	p, st, damage, err := openPersistence(nil, snap, walDir, 0)
	if err != nil {
		t.Fatalf("open refused to start: %v", err)
	}
	defer p.log.Close()
	if !damage.Corrupt() || len(damage.WALQuarantined) == 0 {
		t.Fatalf("damage not reported: %+v", damage)
	}
	var dce *core.DataCorruptionError
	if damage.Err == nil || !errors.As(damage.Err, &dce) {
		t.Fatalf("damage error not typed: %v", damage.Err)
	}
	// Snapshot-covered entries survive; the store serves what the disk
	// could prove.
	if st.Len() < 10 {
		t.Fatalf("snapshot-covered entries lost: len=%d", st.Len())
	}
	for _, q := range damage.WALQuarantined {
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("quarantined file missing: %v", err)
		}
	}
}

// A snapshot that fails verification must be quarantined together with
// the whole WAL (its lineage anchor is gone), booting empty + degraded.
func TestOpenQuarantinesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap, walDir := seedState(t, dir, 30, 10)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x08
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}

	p, st, damage, err := openPersistence(nil, snap, walDir, 0)
	if err != nil {
		t.Fatalf("open refused to start: %v", err)
	}
	defer p.log.Close()
	if damage.SnapshotQuarantined == "" || len(damage.WALQuarantined) == 0 {
		t.Fatalf("anchor loss not fully quarantined: %+v", damage)
	}
	if st.Len() != 0 || st.Version() != 0 {
		t.Fatalf("store not empty after anchor loss: len=%d ver=%d", st.Len(), st.Version())
	}
	if _, err := os.Stat(damage.SnapshotQuarantined); err != nil {
		t.Fatalf("quarantined snapshot missing: %v", err)
	}
}

// A clean shutdown writes the marker; the next boot consumes it (one
// boot per voucher) and restores everything.
func TestCleanShutdownMarkerRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	snap := filepath.Join(dir, "replica.snap")
	walDir := filepath.Join(dir, "wal")
	f := jgroups.NewFabric()
	n, err := NewNode(NodeConfig{
		Group: "gmark", Transport: f.Endpoint("n1"), Stack: testStack(),
		ListenAddr: "127.0.0.1:0", SnapshotPath: snap, WALDir: walDir,
		SnapshotInterval: time.Hour, WriteTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dialNode(t, n)
	for i := 0; i < 10; i++ {
		if err := c.Bind(ctx, []string{fmt.Sprintf("svc%d", i)}, []byte("obj"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	wantVer := n.store.Version()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(walDir, cleanMarkerName)
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("clean close left no marker: %v", err)
	}

	st, info, err := RestoreStoreFS(nil, snap, walDir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Damage.Corrupt() || info.Damage.TornTail {
		t.Fatalf("clean boot reported damage: %+v", info.Damage)
	}
	if st.Version() != wantVer || st.Len() != 10 {
		t.Fatalf("restored ver=%d len=%d, want ver=%d len=10", st.Version(), st.Len(), wantVer)
	}
	if _, err := os.Stat(marker); !os.IsNotExist(err) {
		t.Fatalf("marker not consumed: %v", err)
	}
}

// A node booting from corrupt local state must join the group degraded,
// repair via state transfer, and end up serving the group's data — the
// replica-driven auto-repair loop.
func TestCorruptNodeRepairsViaStateTransfer(t *testing.T) {
	ctx := context.Background()
	f := jgroups.NewFabric()
	dir := t.TempDir()
	snapA := filepath.Join(dir, "a.snap")
	walA := filepath.Join(dir, "wal-a")

	// Healthy replica B accumulates the group's state.
	b := startTestNode(t, f, "b", "grep", "")
	cb := dialNode(t, b)
	for i := 0; i < 20; i++ {
		if err := cb.Bind(ctx, []string{fmt.Sprintf("svc%d", i)}, []byte("obj"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	// A's local durable state is damaged (unrelated lineage + bad CRC).
	if err := buildReplicaState(snapA, walA, 15, 5); err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(snapA)
	if err != nil {
		t.Fatal(err)
	}
	sb[len(sb)-2] ^= 0x20
	if err := os.WriteFile(snapA, sb, 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := NewNode(NodeConfig{
		Group: "grep", Transport: f.Endpoint("a"), Stack: testStack(),
		ListenAddr: "127.0.0.1:0", SnapshotPath: snapA, WALDir: walA,
		SnapshotInterval: time.Hour, WriteTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("corrupt node refused to start: %v", err)
	}
	defer a.Close()
	if !a.Damage().Corrupt() {
		t.Fatal("damage not detected")
	}
	// Joining the existing group pulled state from B — that transfer IS
	// the repair.
	waitFor(t, 5*time.Second, "repair via state transfer", func() bool {
		return !a.NeedsRepair() && a.Repairs() == 1
	})
	waitFor(t, 5*time.Second, "stores converge", func() bool {
		return storesEqual(t, a.Store(), b.Store(), nil)
	})
	// The repaired state must be durable: restart A alone and find it.
	if err := a.Close(); err != nil {
		t.Fatalf("close repaired node: %v", err)
	}
	st, info, err := RestoreStoreFS(nil, snapA, walA)
	if err != nil {
		t.Fatal(err)
	}
	if info.Damage.Corrupt() {
		t.Fatalf("repaired state still damaged: %+v", info.Damage)
	}
	if st.Len() != 20 {
		t.Fatalf("repaired durable state has %d entries, want 20", st.Len())
	}
}

// An ENOSPC'd WAL must seal; writes then ack storage-unavailable (typed
// through the client), and a successful compaction recovers.
func TestSealedWALSurfacesStorageUnavailable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ffs := fault.NewFS(wal.OS, fault.FSConfig{Seed: 1, WriteErrProb: 1})
	ffs.SetEnabled(false)
	f := jgroups.NewFabric()
	n, err := NewNode(NodeConfig{
		Group: "gseal", Transport: f.Endpoint("n1"), Stack: testStack(),
		ListenAddr: "127.0.0.1:0", SnapshotPath: filepath.Join(dir, "replica.snap"),
		WALDir: filepath.Join(dir, "wal"), SnapshotInterval: time.Hour,
		WriteTimeout: 5 * time.Second, FS: ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c := dialNode(t, n)
	if err := c.Bind(ctx, []string{"before"}, []byte("x"), nil, 0); err != nil {
		t.Fatal(err)
	}

	ffs.SetEnabled(true) // every write now fails: the disk is full
	err = c.Bind(ctx, []string{"doomed"}, []byte("x"), nil, 0)
	if !refused(err, errStorageUnavailable) {
		t.Fatalf("write on sealed WAL: err=%v, want storage-unavailable", err)
	}
	if n.pers.log.Sealed() == nil {
		t.Fatal("log not sealed after write failure")
	}

	ffs.SetEnabled(false) // space freed; compaction rotates and unseals
	if err := n.pers.compact(n.store); err != nil {
		t.Fatalf("recovery compaction: %v", err)
	}
	if err := c.Bind(ctx, []string{"after"}, []byte("x"), nil, 0); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// refused reports whether err is the node's "go elsewhere" refusal, a
// *core.ServiceUnavailableError, for reason.
func refused(err, reason error) bool {
	var sue *core.ServiceUnavailableError
	return errors.As(err, &sue) && strings.Contains(err.Error(), reason.Error())
}

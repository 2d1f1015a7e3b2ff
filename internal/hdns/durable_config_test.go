package hdns

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gondi/internal/jgroups"
)

// Every way of naming a durable replica — the snapshot path, the WAL
// directory, or both — gets the same durability: acked writes survive a
// crash, at-rest damage after a clean close is either harmless or
// reported, and the log is compacted.
func TestEveryDurableConfig(t *testing.T) {
	const names = 10
	for _, row := range []struct {
		name      string
		snap, wal string // relative to the row's directory; "" = unset
	}{
		{"snapshot-only", "replica.snap", ""},
		{"wal-only", "", "wal"},
		{"both", "replica.snap", "wal"},
	} {
		paths := func(dir string) (string, string) {
			snap, walDir := "", ""
			if row.snap != "" {
				snap = filepath.Join(dir, row.snap)
			}
			if row.wal != "" {
				walDir = filepath.Join(dir, row.wal)
			}
			return snap, walDir
		}
		start := func(t *testing.T, dir string, cfg NodeConfig) *Node {
			t.Helper()
			cfg.SnapshotPath, cfg.WALDir = paths(dir)
			cfg.Group, cfg.Transport, cfg.Stack = "gdur", jgroups.NewFabric().Endpoint("n1"), testStack()
			cfg.ListenAddr, cfg.WriteTimeout = "127.0.0.1:0", 5*time.Second
			if cfg.SnapshotInterval == 0 {
				cfg.SnapshotInterval = time.Hour
			}
			n, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			return n
		}
		bindAll := func(t *testing.T, n *Node) {
			t.Helper()
			c := dialNode(t, n)
			for i := 0; i < names; i++ {
				if err := c.Bind(context.Background(), []string{fmt.Sprintf("svc%d", i)}, []byte("obj"), nil, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		served := func(n *Node) int {
			got := 0
			for i := 0; i < names; i++ {
				if n.Store().Lookup([]string{fmt.Sprintf("svc%d", i)}).Exists {
					got++
				}
			}
			return got
		}

		t.Run(row.name+"/kill", func(t *testing.T) {
			dir := t.TempDir()
			n := start(t, dir, NodeConfig{})
			bindAll(t, n)
			n.Kill()
			if got := served(start(t, dir, NodeConfig{})); got != names {
				t.Fatalf("restart after kill serves %d of %d acked names", got, names)
			}
		})

		t.Run(row.name+"/damage", func(t *testing.T) {
			dir := t.TempDir()
			n := start(t, dir, NodeConfig{})
			bindAll(t, n)
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			var files []string
			err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				if info, err := d.Info(); err != nil || info.Size() == 0 {
					return err
				}
				rel, err := filepath.Rel(dir, path)
				files = append(files, rel)
				return err
			})
			if err != nil || len(files) == 0 {
				t.Fatalf("clean close left no files to damage (%v)", err)
			}
			for _, rel := range files {
				cp := t.TempDir()
				copyDir(t, dir, cp)
				b, err := os.ReadFile(filepath.Join(cp, rel))
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)-1] ^= 0x01
				if err := os.WriteFile(filepath.Join(cp, rel), b, 0o644); err != nil {
					t.Fatal(err)
				}
				r := start(t, cp, NodeConfig{})
				if got := served(r); got != names && !r.Damage().Corrupt() {
					t.Errorf("last byte of %s flipped: restart serves %d of %d acked names and reports no damage", rel, got, names)
				}
			}
		})

		t.Run(row.name+"/size", func(t *testing.T) {
			const compactBytes = 4096
			dir := t.TempDir()
			n := start(t, dir, NodeConfig{CompactBytes: compactBytes, SnapshotInterval: 10 * time.Millisecond})
			walDir := filepath.Join(dir, row.wal)
			if row.wal == "" {
				walDir = filepath.Join(dir, row.snap) + ".wal"
			}
			c := dialNode(t, n)
			peak := int64(0)
			for i := 0; i < 2000; i++ {
				if err := c.Rebind(context.Background(), []string{"svc"}, []byte(fmt.Sprintf("obj%d", i)), nil, false, 0); err != nil {
					t.Fatal(err)
				}
				if i%50 == 0 {
					peak = max(peak, walBytes(t, walDir))
				}
			}
			// A compaction check runs each SnapshotInterval, so how far the
			// log outgrows CompactBytes between checks depends on the
			// scheduler; once the writes stop, the next check compacts it.
			t.Logf("wal peaked at %d bytes", peak)
			waitFor(t, 5*time.Second, "wal compacted below 2 x CompactBytes", func() bool {
				return walBytes(t, walDir) <= 2*compactBytes
			})
		})
	}
}

// A write burst compacts the log as it passes CompactBytes, not at the
// next housekeeping tick, which here is an hour away.
func TestWriteBurstCompacts(t *testing.T) {
	const compactBytes = 4096
	snap := filepath.Join(t.TempDir(), "replica.snap")
	n, err := NewNode(NodeConfig{
		Group: "gburst", Transport: jgroups.NewFabric().Endpoint("n1"), Stack: testStack(),
		ListenAddr: "127.0.0.1:0", SnapshotPath: snap, CompactBytes: compactBytes,
		SnapshotInterval: time.Hour, WriteTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c := dialNode(t, n)
	for i := 0; i < 2000; i++ {
		if err := c.Rebind(context.Background(), []string{"svc"}, []byte(fmt.Sprintf("obj%d", i)), nil, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "wal compacted below 2 x CompactBytes", func() bool {
		return walBytes(t, snap+".wal") <= 2*compactBytes
	})
}

// walBytes sums the WAL segment files in dir.
func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, s := range segs {
		if info, err := os.Stat(s); err == nil {
			total += info.Size()
		}
	}
	return total
}

// copyDir copies the regular files under src into dst, keeping their
// relative paths.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

package hdns

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gondi/internal/jgroups"
	"gondi/internal/wal"
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
				if _, err := c.Do(context.Background(), &Op{Kind: OpBind, Name: []string{fmt.Sprintf("svc%d", i)}, Obj: []byte("obj")}); err != nil {
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

// A snapshot is as readable as the log it compacts: after a compaction
// its permission bits are a WAL segment's (compared file to file, so the
// umask does not matter).
func TestSnapshotModeMatchesWAL(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "replica.snap")
	n := startTestNode(t, jgroups.NewFabric(), "n1", "gmode", snap)
	if _, err := dialNode(t, n).Do(context.Background(), &Op{Kind: OpBind, Name: []string{"svc"}, Obj: []byte("obj")}); err != nil {
		t.Fatal(err)
	}
	if err := n.pers.compact(n.store); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(snap+".wal", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment after compaction: %v %v", segs, err)
	}
	snapInfo, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	segInfo, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if snapInfo.Mode().Perm() != segInfo.Mode().Perm() {
		t.Fatalf("snapshot mode %v, WAL segment mode %v", snapInfo.Mode().Perm(), segInfo.Mode().Perm())
	}
}

// openFiles is a wal.FS that counts the files it opened and has not
// closed.
type openFiles struct {
	wal.FS
	open atomic.Int64
}

func (f *openFiles) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	return f.count(f.FS.OpenFile(name, flag, perm))
}

func (f *openFiles) CreateTemp(dir, pattern string) (wal.File, error) {
	return f.count(f.FS.CreateTemp(dir, pattern))
}

func (f *openFiles) count(file wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	f.open.Add(1)
	return &countedFile{File: file, fs: f}, nil
}

type countedFile struct {
	wal.File
	fs     *openFiles
	closed bool
}

func (f *countedFile) Close() error {
	if !f.closed {
		f.closed = true
		f.fs.open.Add(-1)
	}
	return f.File.Close()
}

// A NewNode that fails after opening its persistence closes what it
// opened: no WAL file stays open, and a quarantine it counted is taken
// back off the gauge.
func TestFailedNewNodeClosesWhatItOpened(t *testing.T) {
	fsys := &openFiles{FS: wal.OS}
	quarantined := gQuarantined.Value()
	for i := 0; i < 4; i++ {
		dir := t.TempDir()
		snap := filepath.Join(dir, "replica.snap")
		if i%2 == 1 {
			// A snapshot that fails verification: the boot quarantines it.
			if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		n, err := NewNode(NodeConfig{
			Group:        fmt.Sprintf("gleak%d", i),
			Transport:    jgroups.NewFabric().Endpoint("n1"),
			Stack:        testStack(),
			ListenAddr:   "256.0.0.1:0",
			SnapshotPath: snap,
			WALDir:       filepath.Join(dir, "wal"),
			FS:           fsys,
		})
		if err == nil {
			n.Close()
			t.Fatal("NewNode listened on 256.0.0.1")
		}
	}
	if open := fsys.open.Load(); open != 0 {
		t.Errorf("%d files left open by failed NewNode calls", open)
	}
	if got := gQuarantined.Value(); got != quarantined {
		t.Errorf("quarantine gauge %d after failed NewNode calls, want %d", got, quarantined)
	}
}

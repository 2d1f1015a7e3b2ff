package hdns

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSnapshotContainerRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, snapChunk, snapChunk + 1, 3*snapChunk + 17} {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(i * 31)
		}
		enc := encodeSnapshotFile(42, raw)
		ver, got, legacy, err := decodeSnapshotFile(enc)
		if err != nil || legacy {
			t.Fatalf("n=%d: decode err=%v legacy=%v", n, err, legacy)
		}
		if ver != 42 || !bytes.Equal(got, raw) {
			t.Fatalf("n=%d: round trip mismatch (ver=%d, %d bytes)", n, ver, len(got))
		}
	}
}

func TestSnapshotContainerDetectsDamage(t *testing.T) {
	raw := bytes.Repeat([]byte("durable"), 1000)
	enc := encodeSnapshotFile(7, raw)
	// Every single-bit flip past the magic must be caught (a flip inside
	// the magic demotes the file to legacy, which the gob decode then
	// rejects — covered by the persister test).
	for _, off := range []int{len(snapMagic), len(snapMagic) + 3, len(snapMagic) + 8, len(snapMagic) + 12, len(snapMagic) + 16, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x10
		if _, _, legacy, err := decodeSnapshotFile(bad); err == nil && !legacy {
			t.Fatalf("flip at %d accepted", off)
		} else if err != nil && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
	}
	// Truncation at any point must be caught.
	for _, cut := range []int{len(enc) - 1, len(enc) - 9, len(snapMagic) + 4, len(snapMagic) + 10} {
		if _, _, _, err := decodeSnapshotFile(enc[:cut]); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation to %d: %v", cut, err)
		}
	}
}

// FuzzSnapshotDecode hammers the container decoder: it must never
// panic, never allocate unboundedly, and anything it accepts must
// re-encode to the same logical content.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(encodeSnapshotFile(1, []byte("hello")))
	f.Add(encodeSnapshotFile(0, nil))
	f.Add(encodeSnapshotFile(9, bytes.Repeat([]byte{0xab}, 4096)))
	long := encodeSnapshotFile(3, bytes.Repeat([]byte("x"), 2*snapChunk+5))
	f.Add(long)
	f.Add(long[:len(long)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		ver, raw, legacy, err := decodeSnapshotFile(b)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if legacy {
			return // raw passthrough; the gob layer judges it
		}
		enc := encodeSnapshotFile(ver, raw)
		ver2, raw2, legacy2, err2 := decodeSnapshotFile(enc)
		if err2 != nil || legacy2 || ver2 != ver || !bytes.Equal(raw2, raw) {
			t.Fatalf("accepted input does not round trip: ver=%d/%d err=%v", ver, ver2, err2)
		}
	})
}

// sampleTree builds a tree with every shape a snapshot carries: root
// attributes with an empty value list and two values that differ only
// in case, a context with attributes, a leased binding, a leased
// context, an empty context and a binding with no object. It is also
// the tree testdata/legacy-gob.snap holds, gob-encoded by the build
// before the op-stream snapshot.
func sampleTree() []*Op {
	return []*Op{
		{Kind: OpModAttrs, Mods: []ModRec{{Op: 0, ID: "empty"}, {Op: 1, ID: "case", Vals: []string{"Printer", "printer"}}}},
		{Kind: OpCreateCtx, Name: []string{"dir"}, Attrs: map[string][]string{"ou": {"eng"}}},
		{Kind: OpBind, Name: []string{"dir", "svc"}, Obj: []byte("pg://10.0.0.5:5432"),
			Attrs: map[string][]string{"type": {"db"}, "port": {"5432"}}, LeaseMillis: 60000, Now: 1000},
		{Kind: OpCreateCtx, Name: []string{"leased"}},
		{Kind: OpLeaseRenew, Name: []string{"leased"}, LeaseMillis: 5000, Now: 2000},
		{Kind: OpBind, Name: []string{"leased", "x"}, Obj: []byte("x")},
		{Kind: OpCreateCtx, Name: []string{"empty"}},
		{Kind: OpBind, Name: []string{"plain"}},
	}
}

// storeOf applies ops to a fresh store.
func storeOf(tb testing.TB, ops []*Op) *Store {
	tb.Helper()
	s := NewStore()
	for _, op := range ops {
		apply(tb, s, op)
	}
	return s
}

// snapGolden is sampleTree's snapshot: the op-stream layout must not
// change under the files and state transfers that carry it.
const snapGolden = "810808" + // snapV1, version 8, 8 ops
	"290700000000000000000201046361736502075072696e746572077072696e7465720005656d70747900" +
	"1605000000000103646972000001026f750103656e6700" +
	"3a0100c8dc030000020364697203737663001270673a2f2f31302e302e302e353a353433320204706f727401043534333204747970650102646200" +
	"1005000000000105656d70747900000000" +
	"11050000000001066c656173656400000000" +
	"120800d836000001066c656173656400000000" +
	"14010000000002066c656173656401780001780000" +
	"1001000000000105706c61696e00000000"

func TestSnapshotGolden(t *testing.T) {
	want, err := hex.DecodeString(snapGolden)
	if err != nil {
		t.Fatal(err)
	}
	tree := storeOf(t, sampleTree())
	if _, got := tree.SnapshotVersioned(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot %x, want %x", got, want)
	}
	s := NewStore()
	if err := s.Restore(want); err != nil || s.Version() != 8 || !reflect.DeepEqual(s.root, tree.root) {
		t.Fatalf("golden restore: err %v, version %d", err, s.Version())
	}
}

// A snapshot from the build before the op stream is a gob of the tree.
// testdata/legacy-gob.snap is sampleTree's, written by that build; it
// still loads, as a bare file and inside the GSNAP1 container, and the
// next compaction rewrites it as an op stream.
func TestGobSnapshotStillLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-gob.snap"))
	if err != nil {
		t.Fatal(err)
	}
	want := storeOf(t, sampleTree())
	for _, c := range []struct {
		name string
		file []byte
	}{{"bare", raw}, {"GSNAP1", encodeSnapshotFile(8, raw)}} {
		dir := t.TempDir()
		snap := filepath.Join(dir, "replica.snap")
		if err := os.WriteFile(snap, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		p, st, damage, err := openPersistence(nil, snap, filepath.Join(dir, "wal"), 0)
		if err != nil || damage.Corrupt() {
			t.Fatalf("%s: open: %v, damage %+v", c.name, err, damage)
		}
		if st.Version() != 8 || !reflect.DeepEqual(st.root, want.root) {
			t.Fatalf("%s: restored version %d, tree differs: %v", c.name, st.Version(), !reflect.DeepEqual(st.root, want.root))
		}
		if err := p.close(st); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, body, legacy, err := decodeSnapshotFile(b); err != nil || legacy || len(body) == 0 || body[0] != snapV1 {
			t.Fatalf("%s: compaction left legacy=%v err=%v", c.name, legacy, err)
		}
	}
}

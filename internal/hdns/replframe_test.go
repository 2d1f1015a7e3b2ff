package hdns

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gondi/internal/jgroups"
	"gondi/internal/wire"
)

// frameOps is one op of every kind, each field set somewhere.
func frameOps() []*Op {
	return []*Op{
		{Kind: OpBind, ID: "n1-1", Name: []string{"dcl", "mokey"}, Obj: []byte("printer"),
			Attrs: map[string][]string{"type": {"lpr", "duplex"}}, LeaseMillis: 5000, Now: 1234567},
		{Kind: OpRebind, ID: "n1-2", Name: []string{"y"}, Obj: []byte("v"), ReplaceAttrs: true, Now: 7},
		{Kind: OpUnbind, ID: "n1-3", Name: []string{"y"}},
		{Kind: OpRename, ID: "n1-4", Name: []string{"a"}, Name2: []string{"b", "c"}},
		{Kind: OpCreateCtx, ID: "n1-5", Name: []string{"dir"}},
		{Kind: OpDestroyCtx, ID: "n1-6", Name: []string{"dir"}},
		{Kind: OpModAttrs, ID: "n1-7", Name: []string{"x"}, Mods: []ModRec{
			{Op: 0, ID: "k", Vals: []string{"v1", "v2"}}, {Op: 2, ID: "gone"}}},
		{Kind: OpLeaseRenew, ID: "n1-8", Name: []string{"x"}, LeaseMillis: 9000, Now: 99},
		{Kind: OpExpire, ID: "n1-9", Name: []string{"x"}, Now: 100},
	}
}

func derefOps(ops []*Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		out[i] = *op
	}
	return out
}

func refOps(ops []Op) []*Op {
	out := make([]*Op, len(ops))
	for i := range ops {
		out[i] = &ops[i]
	}
	return out
}

func TestReplFrameRoundTrip(t *testing.T) {
	ops := frameOps()
	for _, frame := range [][]*Op{ops, ops[:1], {}} {
		got, err := decodeFrame(encodeFrame(frame))
		if err != nil {
			t.Fatalf("%d ops: %v", len(frame), err)
		}
		if want := derefOps(frame); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d ops round trip:\n got %+v\nwant %+v", len(frame), got, want)
		}
	}
	enc := encodeFrame(ops)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeFrame(enc[:cut]); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%d-byte prefix of %d: err = %v", cut, len(enc), err)
		}
	}
	if _, err := decodeFrame(append(enc, 0)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// The frame carries the WAL record's op body: a record is the store
// version followed by exactly the bytes the frame length-prefixes.
func TestReplFrameCarriesWALOpBody(t *testing.T) {
	op := frameOps()[6]
	rec := appendWALOp(nil, 300, op)
	frame := encodeFrame([]*Op{op})
	body := rec[2:] // uvarint 300 is two bytes
	if want := append([]byte{frameV1, 1, byte(len(body))}, body...); !bytes.Equal(frame, want) {
		t.Fatalf("frame %x, want %x", frame, want)
	}
}

// walGolden is a WAL record written by the layout that predates the
// shared op body (version 300, an OpModAttrs with every field set); the
// bytes on disk must not change.
const walGolden = "ac020701882787ad4b056e312d3432020364636c056d6f6b6579010162077072696e74657201047479706502036c7072066475706c6578010204676f6e65010176"

func TestWALRecordGolden(t *testing.T) {
	rec, err := hex.DecodeString(walGolden)
	if err != nil {
		t.Fatal(err)
	}
	ver, op, err := decodeWALOp(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := &Op{Kind: OpModAttrs, ID: "n1-42", Name: []string{"dcl", "mokey"}, Name2: []string{"b"},
		Obj: []byte("printer"), Attrs: map[string][]string{"type": {"lpr", "duplex"}},
		ReplaceAttrs: true, Mods: []ModRec{{Op: 2, ID: "gone", Vals: []string{"v"}}},
		LeaseMillis: 5000, Now: 1234567}
	if ver != 300 || !reflect.DeepEqual(op, want) {
		t.Fatalf("decoded version %d op %+v, want 300 %+v", ver, op, want)
	}
	if again := appendWALOp(nil, ver, op); !bytes.Equal(again, rec) {
		t.Fatalf("re-encoded %x, want %x", again, rec)
	}
}

// TestReplFrameAllocs is an allocations gate cited by check.sh: every
// replica decodes every write's frame, and the sender encodes it. A
// one-op rebind frame decodes in <= 12 allocations (gob compiled its
// type engine per frame, ~550) and encodes in <= 1, the frame itself.
func TestReplFrameAllocs(t *testing.T) {
	op := &Op{Kind: OpRebind, ID: "127.0.0.1:7111-42", Name: []string{"k00042"}, Obj: make([]byte, 220), Now: 1234567}
	ops := []*Op{op}
	frame := encodeFrame(ops)
	enc := testing.AllocsPerRun(200, func() { frame = encodeFrame(ops) })
	dec := testing.AllocsPerRun(200, func() {
		if _, err := decodeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 || dec > 12 {
		t.Fatalf("1-op rebind frame: encode %.1f allocs (want <= 1), decode %.1f (want <= 12)", enc, dec)
	}
	t.Logf("1-op rebind frame: encode %.1f allocs, decode %.1f", enc, dec)
}

func startSoloNode(t *testing.T, group string, writeTimeout time.Duration, replBatch int) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Group: group, Transport: jgroups.NewFabric().Endpoint("n1"), Stack: testStack(),
		ListenAddr: "127.0.0.1:0", WriteTimeout: writeTimeout, ReplBatch: replBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// A frame that does not decode whole applies none of its ops and is
// counted; so is a gob frame from a binary that predates the format.
func TestMalformedReplFrameAppliesNothing(t *testing.T) {
	n := startSoloNode(t, "gframe", 5*time.Second, 0)
	two := encodeFrame([]*Op{
		{Kind: OpBind, ID: "x-1", Name: []string{"a"}, Obj: []byte("1")},
		{Kind: OpBind, ID: "x-2", Name: []string{"b"}, Obj: []byte("2")},
	})
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct{ Ops []Op }{derefOps(frameOps())}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{two[:len(two)-1], legacy.Bytes(), nil} {
		errs, ver := mReplFrameErrs.Value(), n.Store().Version()
		n.deliver("x", bad)
		if got := mReplFrameErrs.Value(); got != errs+1 {
			t.Errorf("frame %x: error counter %d -> %d, want +1", bad, errs, got)
		}
		if got := n.Store().Version(); got != ver {
			t.Errorf("frame %x: store version %d -> %d, want no op applied", bad, ver, got)
		}
	}
	ver := n.Store().Version()
	n.deliver("x", two)
	if got := n.Store().Version(); got != ver+2 || !n.Store().Lookup([]string{"b"}).Exists {
		t.Fatalf("whole frame: version %d -> %d, want both ops applied", ver, got)
	}
}

// Each write stops its timeout when it returns. A timer per wait, left
// to fire WriteTimeout later, kept two timers live per write: tens of MB
// over this loop.
func TestWritesDoNotAccumulateTimers(t *testing.T) {
	n := startSoloNode(t, "gtimers", time.Hour, 0)
	obj := []byte("v")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 50_000; i++ {
		if err := n.submit(&Op{Kind: OpRebind, Name: []string{"k"}, Obj: obj}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew >= 5<<20 {
		t.Fatalf("50 000 writes left the heap %d bytes larger, want < 5 MB", grew)
	}
	t.Logf("50 000 writes: heap %+d bytes", grew)
}

// WriteTimeout bounds a write's whole wait: queueing behind a stalled
// sender and then waiting for delivery share one timeout.
func TestStalledWriteTimesOutOnce(t *testing.T) {
	const timeout = time.Second
	n := startSoloNode(t, "gstall", timeout, 1)
	// Hold the sender role and fill the queue (capacity 2*ReplBatch), so
	// the write below waits to queue and, once queued, is never sent.
	n.mu.Lock()
	n.replSending = true
	n.mu.Unlock()
	n.replC <- &Op{}
	n.replC <- &Op{}
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- n.submit(&Op{Kind: OpRebind, Name: []string{"k"}}) }()
	time.Sleep(timeout * 8 / 10)
	<-n.replC // the write queues with a fifth of its timeout left
	err := <-done
	elapsed := time.Since(start)
	if !errors.Is(err, errWriteTimeout) {
		t.Fatalf("stalled write: %v, want a write timeout", err)
	}
	if elapsed > timeout*3/2 {
		t.Fatalf("stalled write failed after %v, want about one WriteTimeout (%v)", elapsed, timeout)
	}
}

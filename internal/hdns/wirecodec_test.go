package hdns

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"gondi/internal/wire"
	"gondi/internal/wire/wiretest"
)

func filledMessages() (*Op, *Rsp, *EventMsg) {
	var (
		req Op
		rsp Rsp
		ev  EventMsg
	)
	wiretest.Fill(&req)
	wiretest.Fill(&rsp)
	wiretest.Fill(&ev)
	return &req, &rsp, &ev
}

// wireCase gives the three message types one shape: the encoding of a
// filled message, and a decode to a pointer reflect.DeepEqual can compare
// with it.
type wireCase struct {
	name   string
	enc    []byte
	want   any
	decode func([]byte) (any, error)
}

func wireCodecs() []wireCase {
	req, rsp, ev := filledMessages()
	return []wireCase{
		{"req", appendReq(nil, req), req, func(b []byte) (any, error) { return decodeReq(b) }},
		{"rsp", appendRsp(nil, rsp), rsp, func(b []byte) (any, error) { return decodeRsp(b) }},
		{"event", appendEvent(nil, ev), ev, func(b []byte) (any, error) {
			m, err := decodeEvent(b)
			return &m, err
		}},
	}
}

func TestWireRoundTripEveryField(t *testing.T) {
	for _, c := range wireCodecs() {
		got, err := c.decode(c.enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

func TestWireRejectsPrefixesAndTrailingBytes(t *testing.T) {
	for _, c := range wireCodecs() {
		for cut := 0; cut < len(c.enc); cut++ {
			if _, err := c.decode(c.enc[:cut]); !errors.Is(err, errWireMalformed) {
				t.Fatalf("%s: %d-byte prefix of %d: err = %v", c.name, cut, len(c.enc), err)
			}
		}
		if _, err := c.decode(append(c.enc[:len(c.enc):len(c.enc)], 0)); !errors.Is(err, errWireMalformed) {
			t.Fatalf("%s: trailing byte: err = %v", c.name, err)
		}
	}
}

// What gob gave callers and the hand codec must keep.
func TestWireCodecSemantics(t *testing.T) {
	t.Run("zero length decodes to nil", func(t *testing.T) {
		empty := map[string][]string{}
		req, err := decodeReq(appendReq(nil, &Op{Name2: []string{}, Obj: []byte{}, Attrs: empty, Mods: []ModRec{}}))
		if err != nil {
			t.Fatal(err)
		}
		rsp, err := decodeRsp(appendRsp(nil, &Rsp{
			View: NodeView{Obj: []byte{}, Attrs: empty}, List: []ListEntry{}, Hits: []SearchHit{},
		}))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := decodeEvent(appendEvent(nil, &EventMsg{Name: []string{}, Obj: []byte{}, Old: []byte{}, Name2: []string{}}))
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]any{
			"Op.Name": req.Name, "Op.Name2": req.Name2, "Op.Obj": req.Obj, "Op.Attrs": req.Attrs, "Op.Mods": req.Mods,
			"View.Obj": rsp.View.Obj, "View.Attrs": rsp.View.Attrs, "Rsp.List": rsp.List, "Rsp.Hits": rsp.Hits,
			"Event.Name": ev.Name, "Event.Obj": ev.Obj, "Event.Old": ev.Old, "Event.Name2": ev.Name2,
		} {
			if !reflect.ValueOf(v).IsNil() {
				t.Errorf("%s = %#v, want nil", name, v)
			}
		}
		if !reflect.DeepEqual(req, &Op{}) || !reflect.DeepEqual(rsp, &Rsp{}) || !reflect.DeepEqual(ev, EventMsg{}) {
			t.Errorf("empty messages do not decode to zero values: %+v %+v %+v", req, rsp, ev)
		}
	})

	t.Run("signed fields carry negatives", func(t *testing.T) {
		in := &Op{Scope: -1, Limit: -2, LeaseMillis: -3, Now: -4}
		req, err := decodeReq(appendReq(nil, in))
		if err != nil || !reflect.DeepEqual(req, in) {
			t.Fatalf("req = %+v, %v", req, err)
		}
		out := &Rsp{Expiry: -5}
		rsp, err := decodeRsp(appendRsp(nil, out))
		if err != nil || !reflect.DeepEqual(rsp, out) {
			t.Fatalf("rsp = %+v, %v", rsp, err)
		}
	})

	t.Run("decoded strings do not alias the body", func(t *testing.T) {
		// No []byte field is set: those alias the body by contract (see
		// wirecodec.go), strings must survive the body being overwritten.
		attrs := map[string][]string{"k": {"v1", "v2"}}
		req := &Op{ID: "i", Name: []string{"a", "b"}, Name2: []string{"c"}, Attrs: attrs,
			Mods: []ModRec{{ID: "m", Vals: []string{"x"}}}, Filter: "(f=*)", Secret: "s3"}
		rsp := &Rsp{View: NodeView{Attrs: attrs}, List: []ListEntry{{Name: "n"}},
			Hits: []SearchHit{{Name: []string{"h"}, Attrs: attrs}}}
		ev := EventMsg{Name: []string{"e", "f"}}
		scribble := func(b []byte) {
			for i := range b {
				b[i] = 0xff
			}
		}
		body := appendReq(nil, req)
		gotReq, _ := decodeReq(body)
		scribble(body)
		body = appendRsp(nil, rsp)
		gotRsp, _ := decodeRsp(body)
		scribble(body)
		body = appendEvent(nil, &ev)
		gotEv, _ := decodeEvent(body)
		scribble(body)
		if !reflect.DeepEqual(gotReq, req) || !reflect.DeepEqual(gotRsp, rsp) || !reflect.DeepEqual(gotEv, ev) {
			t.Errorf("strings changed with the body:\n%+v\n%+v\n%+v", gotReq, gotRsp, gotEv)
		}
	})

	t.Run("a corrupt count is rejected before it allocates", func(t *testing.T) {
		huge := binary.AppendUvarint(nil, 1<<40)
		// Each prefix ends where a count is read: Name, Obj, Attrs, Mods
		// of a request (after its format, kind, replace, lease, now and
		// id); Obj, Attrs, List, Hits of a Rsp.
		op := []byte{reqV1, 0, 0, 0, 0, 0}
		reqPrefixes := [][]byte{op, append(op, 0, 0), append(op, 0, 0, 0), append(op, 0, 0, 0, 0)}
		rspPrefixes := [][]byte{{0}, {0, 0}, {0, 0, 0}, {0, 0, 0, 0}}
		pad := make([]byte, 64) // so the bound, not the end of input, rejects
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := range reqPrefixes {
			req := append(append(bytes.Clone(reqPrefixes[i]), huge...), pad...)
			if _, err := decodeReq(req); !errors.Is(err, errWireMalformed) {
				t.Errorf("req count at %d: err = %v", len(reqPrefixes[i]), err)
			}
			rsp := append(append(bytes.Clone(rspPrefixes[i]), huge...), pad...)
			if _, err := decodeRsp(rsp); !errors.Is(err, errWireMalformed) {
				t.Errorf("rsp count at %d: err = %v", len(rspPrefixes[i]), err)
			}
		}
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > 1<<20 {
			t.Errorf("rejecting corrupt counts allocated %d bytes", grew)
		}
	})
}

// TestLookupWireAllocs is an allocations gate cited by check.sh: the
// codec's whole share of one uncached lookup — encode and decode of a
// one-component request and of a 220-byte-object, one-attribute Rsp — stays
// ≤ 12 allocations (four per-call gob codecs put the rung at ~700).
func TestLookupWireAllocs(t *testing.T) {
	req := &Op{Name: []string{"k00042"}}
	rsp := &Rsp{View: NodeView{Exists: true, Obj: make([]byte, 220), Attrs: map[string][]string{"type": {"printer"}}}}
	var reqBuf, rspBuf []byte
	n := testing.AllocsPerRun(200, func() {
		reqBuf = appendReq(reqBuf[:0], req)
		if _, err := decodeReq(reqBuf); err != nil {
			t.Fatal(err)
		}
		rspBuf = appendRsp(rspBuf[:0], rsp)
		if _, err := decodeRsp(rspBuf); err != nil {
			t.Fatal(err)
		}
	})
	if n > 12 {
		t.Fatalf("lookup request+Rsp encode+decode allocates %.1f per op, want <= 12", n)
	}
	t.Logf("lookup request+Rsp encode+decode: %.1f allocs", n)
}

// FuzzHDNSWire feeds one input to every strict decoder in the package —
// the three request-path messages, the WAL record, the replication
// frame and the snapshot's op stream — which must never panic, and
// anything one of them accepts must re-encode to something that decodes
// equal.
func FuzzHDNSWire(f *testing.F) {
	for _, c := range wireCodecs() {
		f.Add(c.enc)
		f.Add(c.enc[:len(c.enc)/2])
	}
	f.Add(appendReq(nil, &Op{Name: []string{"k00042"}}))
	f.Add(appendRsp(nil, &Rsp{}))
	f.Add(appendEvent(nil, &EventMsg{WatchID: 1, Kind: OpUnbind, Name: []string{"a"}, Old: []byte("x")}))
	f.Add(appendEvent(nil, &EventMsg{WatchID: 2, Kind: OpRename, Name: []string{"a", "x"}, Obj: []byte("o"),
		Name2: []string{"z", "y"}}))
	f.Add(appendWALOp(nil, 7, &Op{Kind: OpBind, ID: "n1-3", Name: []string{"a", "b"}, Obj: []byte("o"),
		Attrs: map[string][]string{"t": {"v"}}, Mods: []ModRec{{Op: 2, ID: "gone"}}, LeaseMillis: 5000, Now: 1234567}))
	f.Add(appendWALOp(nil, 8, &Op{Kind: OpExpire, ID: "n1-4", Name: []string{"a", "b"}, Now: 1234567}))
	for _, op := range frameOps() {
		f.Add(encodeFrame([]*Op{op}))
	}
	all := encodeFrame(frameOps())
	f.Add(all[:len(all)-3])
	f.Add(encodeFrame(nil))
	_, snap := storeOf(f, sampleTree()).SnapshotVersioned()
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	// State the round trip must keep: a lease on the root, and a bind
	// whose expiry overflows int64 (stored as no lease).
	for _, op := range []*Op{{Kind: OpLeaseRenew, LeaseMillis: 5, Now: 1},
		{Kind: OpBind, Name: []string{"x"}, LeaseMillis: 10, Now: math.MaxInt64 - 1}} {
		b := binary.AppendUvarint(append([]byte{snapV1}, 1), 1)
		f.Add(wire.PrefixBytes(appendOp(b, op), len(b)))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := decodeReq(b); err == nil {
			if again, err := decodeReq(appendReq(nil, req)); err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("req does not round trip: %+v / %+v, %v", req, again, err)
			}
		} else if !errors.Is(err, errWireMalformed) {
			t.Fatalf("req: untyped error %v", err)
		}
		if rsp, err := decodeRsp(b); err == nil {
			if again, err := decodeRsp(appendRsp(nil, rsp)); err != nil || !reflect.DeepEqual(again, rsp) {
				t.Fatalf("rsp does not round trip: %+v / %+v, %v", rsp, again, err)
			}
		} else if !errors.Is(err, errWireMalformed) {
			t.Fatalf("rsp: untyped error %v", err)
		}
		if ev, err := decodeEvent(b); err == nil {
			if again, err := decodeEvent(appendEvent(nil, &ev)); err != nil || !reflect.DeepEqual(again, ev) {
				t.Fatalf("event does not round trip: %+v / %+v, %v", ev, again, err)
			}
		} else if !errors.Is(err, errWireMalformed) {
			t.Fatalf("event: untyped error %v", err)
		}
		if ver, op, err := decodeWALOp(b); err == nil {
			ver2, again, err := decodeWALOp(appendWALOp(nil, ver, op))
			if err != nil || ver2 != ver || !reflect.DeepEqual(again, op) {
				t.Fatalf("wal op does not round trip: %d %+v / %d %+v, %v", ver, op, ver2, again, err)
			}
		}
		if len(b) > 0 && b[0] == snapV1 { // any other first byte is the gob reader's
			s := NewStore()
			if s.Restore(b) == nil {
				ver, snap := s.SnapshotVersioned()
				again := NewStore()
				if err := again.Restore(snap); err != nil || again.Version() != ver || !reflect.DeepEqual(again.root, s.root) {
					t.Fatalf("snapshot does not round trip: %v", err)
				}
			}
		}
		if ops, err := decodeFrame(b); err == nil {
			if again, err := decodeFrame(encodeFrame(refOps(ops))); err != nil || !reflect.DeepEqual(again, ops) {
				t.Fatalf("frame does not round trip: %+v / %+v, %v", ops, again, err)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("frame: untyped error %v", err)
		}
	})
}

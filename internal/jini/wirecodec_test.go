package jini

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"
	"time"

	"gondi/internal/rpc"
	"gondi/internal/wire"
	"gondi/internal/wire/wiretest"
)

// wireCase gives the three message types one shape: an encoding, and a
// decode to a value reflect.DeepEqual can compare with what was encoded.
type wireCase struct {
	name   string
	enc    []byte
	want   any
	decode func([]byte) (any, error)
}

func reqCase(name string, r *wireReq) wireCase {
	return wireCase{name, appendReq(nil, r), r, func(b []byte) (any, error) { return decodeReq(b) }}
}

func rspCase(name string, r *wireRsp) wireCase {
	return wireCase{name, appendRsp(nil, r), r, func(b []byte) (any, error) { return decodeRsp(b) }}
}

func eventCase(name string, ev *ServiceEvent) wireCase {
	return wireCase{name, appendEvent(nil, ev), ev, func(b []byte) (any, error) {
		got, err := decodeEvent(b)
		return &got, err
	}}
}

// filledCases are every message with every field set, so a field added
// to a wire struct without codec support decodes to zero and fails.
func filledCases() []wireCase {
	var (
		req wireReq
		rsp wireRsp
		ev  ServiceEvent
	)
	wiretest.Fill(&req)
	wiretest.Fill(&rsp)
	wiretest.Fill(&ev)
	return []wireCase{reqCase("req", &req), rspCase("rsp", &rsp), eventCase("event", &ev)}
}

// methodCases are the bodies each registrar and proxy method sends and
// answers, as the clients build them; the answers without an expiry
// check that the zero time comes back zero, not as the Unix epoch.
func methodCases() []wireCase {
	item := ServiceItem{ID: "svc-1", Types: []string{"gondi.Binding"}, Service: []byte("stub"),
		Entries: []Entry{NewEntry("Name", "name", "printer", "parent", "")}}
	tmpl := ServiceTemplate{Types: []string{"gondi.Binding"}, Entries: []Entry{NewEntry("Name", "name", "printer")}}
	expiry := time.Unix(1700000000, 123456789)
	return []wireCase{
		reqCase(mRegister, &wireReq{Item: item, LeaseMs: 30000}),
		reqCase(mLookup, &wireReq{Template: ServiceTemplate{ID: "svc-1"}, Max: 1}),
		reqCase(mLookup+" template", &wireReq{Template: tmpl}),
		reqCase(mRenew, &wireReq{ID: "svc-1", LeaseMs: 30000}),
		reqCase(mCancel, &wireReq{ID: "svc-1"}),
		reqCase(mNotify, &wireReq{Template: tmpl, Mask: TransitionMatchNoMatch | TransitionNoMatchMatch, LeaseMs: 60000}),
		reqCase(mUnnotify, &wireReq{RegID: 7}),
		reqCase(mGroups, &wireReq{}),
		reqCase(mProxyRegister, &wireReq{Item: item, LeaseMs: 30000, OnlyNew: true}),
		rspCase(mRegister+" rsp", &wireRsp{Reg: Registration{ID: "svc-1", Expiry: expiry}}),
		rspCase(mLookup+" rsp", &wireRsp{Items: []ServiceItem{item, {ID: "svc-2"}}}),
		rspCase(mRenew+" rsp", &wireRsp{Expiry: expiry}),
		rspCase(mNotify+" rsp", &wireRsp{RegID: 7}),
		rspCase(mGroups+" rsp", &wireRsp{Groups: []string{"public", "campus"}}),
		eventCase(mJiniEvent+" removed", &ServiceEvent{RegistrationID: 7, Transition: TransitionMatchNoMatch, ID: "svc-1"}),
		eventCase(mJiniEvent+" added", &ServiceEvent{RegistrationID: 7, Transition: TransitionNoMatchMatch, ID: "svc-1", Item: &item}),
	}
}

func TestJiniWireRoundTripEveryField(t *testing.T) {
	for _, c := range append(filledCases(), methodCases()...) {
		got, err := c.decode(c.enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

func TestJiniWireRejectsPrefixesTrailingBytesAndOtherMessages(t *testing.T) {
	cases := filledCases()
	for _, c := range cases {
		for cut := 0; cut < len(c.enc); cut++ {
			if _, err := c.decode(c.enc[:cut]); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("%s: %d-byte prefix of %d: err = %v", c.name, cut, len(c.enc), err)
			}
		}
		if _, err := c.decode(append(c.enc[:len(c.enc):len(c.enc)], 0)); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%s: trailing byte: err = %v", c.name, err)
		}
		for _, other := range cases {
			if other.name == c.name {
				continue
			}
			if _, err := c.decode(other.enc); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("%s decoder accepted a %s: err = %v", c.name, other.name, err)
			}
		}
	}
}

// gobBodies are what a client or LUS that predates the binary format
// sent: gob streams of the old message structs.
func gobBodies(t testing.TB) map[string][]byte {
	type wireReq struct {
		Item     ServiceItem
		Template ServiceTemplate
		LeaseMs  int64
		ID       ServiceID
		Max      int
		Mask     int
		RegID    uint64
	}
	type wireRsp struct {
		Reg    Registration
		Items  []ServiceItem
		Expiry time.Time
		RegID  uint64
		Groups []string
	}
	type proxyReq struct {
		Item          ServiceItem
		LeaseMs       int64
		OnlyNew       bool
		RequireExists bool
	}
	item := ServiceItem{ID: "svc-1", Types: []string{"gondi.Binding"}, Service: []byte("stub"),
		Entries: []Entry{NewEntry("Name", "name", "printer")}}
	out := map[string][]byte{}
	for name, v := range map[string]any{
		"lookup":   &wireReq{Template: ServiceTemplate{ID: "svc-1"}, Max: 1},
		"register": &wireReq{Item: item, LeaseMs: 30000},
		"groups":   &wireReq{},
		"proxy":    &proxyReq{Item: item, LeaseMs: 30000, OnlyNew: true},
		"response": &wireRsp{Reg: Registration{ID: "svc-1", Expiry: time.Now()}, Items: []ServiceItem{item}},
		"event":    &ServiceEvent{RegistrationID: 1, Transition: TransitionNoMatchMatch, ID: "svc-1", Item: &item},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// A body from a binary that predates the format is rejected, never
// misread, by every decoder; and an LUS sent one answers with an error
// and keeps serving.
func TestJiniWireRejectsGobBodies(t *testing.T) {
	for name, body := range gobBodies(t) {
		if _, err := decodeReq(body); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s as request: err = %v, want wire.ErrMalformed", name, err)
		}
		if _, err := decodeRsp(body); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s as response: err = %v, want wire.ErrMalformed", name, err)
		}
		if _, err := decodeEvent(body); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s as event: err = %v, want wire.ErrMalformed", name, err)
		}
	}

	lus, r := newTestLUS(t)
	rc, err := rpc.Dial(lus.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Call(context.Background(), mLookup, gobBodies(t)["lookup"]); err == nil {
		t.Fatal("LUS accepted a gob lookup")
	}
	if _, err := r.ServiceGroups(context.Background()); err != nil {
		t.Fatalf("LUS stopped serving after a gob body: %v", err)
	}
}

// TestRegistrarCodecAllocs is an allocations gate cited by check.sh.
// Every provider lookup and each lock register read of a strict bind is
// one ID lookup: encoding its request (into the pooled buffer) or its
// response (into a buffer of its own) costs <= 1 allocation, decoding
// the request <= 2 and decoding a one-item response <= 14. Four
// per-call gob codecs put the whole round trip at ~650.
func TestRegistrarCodecAllocs(t *testing.T) {
	req := &wireReq{Template: ServiceTemplate{ID: "svc-00042"}, Max: 1}
	rsp := &wireRsp{Items: []ServiceItem{{ID: "svc-00042", Types: []string{"gondi.Binding"},
		Service: make([]byte, 220), Entries: []Entry{NewEntry("gondi.Name", "name", "k00042", "parent", "")}}}}
	reqBody, rspBody := appendReq(nil, req), appendRsp(nil, rsp)
	var buf []byte
	encReq := testing.AllocsPerRun(200, func() { buf = appendReq(buf[:0], req) })
	encRsp := testing.AllocsPerRun(200, func() { buf = encodeRsp(rsp) })
	decReq := testing.AllocsPerRun(200, func() {
		if _, err := decodeReq(reqBody); err != nil {
			t.Fatal(err)
		}
	})
	decRsp := testing.AllocsPerRun(200, func() {
		if _, err := decodeRsp(rspBody); err != nil {
			t.Fatal(err)
		}
	})
	if encReq > 1 || encRsp > 1 || decReq > 2 || decRsp > 14 {
		t.Fatalf("ID lookup: encode req %.1f rsp %.1f allocs (want <= 1 each), decode req %.1f (want <= 2), 1-item rsp %.1f (want <= 14)",
			encReq, encRsp, decReq, decRsp)
	}
	t.Logf("ID lookup: encode req %.1f rsp %.1f, decode req %.1f rsp %.1f allocs", encReq, encRsp, decReq, decRsp)
}

// FuzzJiniWire feeds one input to the request, response and event
// decoders, which must never panic and must fail with wire.ErrMalformed;
// anything one of them accepts must re-encode to something that decodes
// equal.
func FuzzJiniWire(f *testing.F) {
	for _, c := range append(filledCases(), methodCases()...) {
		f.Add(c.enc)
	}
	for _, c := range filledCases() {
		f.Add(c.enc[:len(c.enc)/2])
	}
	for _, body := range gobBodies(f) {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := decodeReq(b); err == nil {
			if again, err := decodeReq(appendReq(nil, req)); err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request does not round trip: %+v / %+v, %v", req, again, err)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("request: untyped error %v", err)
		}
		if rsp, err := decodeRsp(b); err == nil {
			if again, err := decodeRsp(appendRsp(nil, rsp)); err != nil || !reflect.DeepEqual(again, rsp) {
				t.Fatalf("response does not round trip: %+v / %+v, %v", rsp, again, err)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("response: untyped error %v", err)
		}
		if ev, err := decodeEvent(b); err == nil {
			if again, err := decodeEvent(appendEvent(nil, &ev)); err != nil || !reflect.DeepEqual(again, ev) {
				t.Fatalf("event does not round trip: %+v / %+v, %v", ev, again, err)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("event: untyped error %v", err)
		}
	})
}

package rpc

import (
	"bytes"
	"testing"
)

func roundTripFrame(t *testing.T, f *frame) *frame {
	t.Helper()
	payload := appendFrame(nil, f)
	var g frame
	if err := decodeFrame(&g, payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &g
}

func TestCodecRoundTrip(t *testing.T) {
	f := &frame{
		Kind:   kindRequest,
		ID:     0xdeadbeefcafe,
		Code:   codeOK,
		Method: []byte("hdns.lookup"),
		Body:   []byte("payload bytes"),
	}
	g := roundTripFrame(t, f)
	if g.Kind != f.Kind || g.ID != f.ID || g.Code != f.Code ||
		!bytes.Equal(g.Method, f.Method) || !bytes.Equal(g.Body, f.Body) {
		t.Fatalf("round trip: %+v -> %+v", f, g)
	}
	if len(g.Items) != 0 {
		t.Fatalf("unary frame grew items: %+v", g.Items)
	}
}

func TestCodecBatchRoundTrip(t *testing.T) {
	f := &frame{
		Kind: kindBatchResponse,
		ID:   42,
		Items: []frameItem{
			{Code: codeOK, Body: []byte("one")},
			{Code: codeInternal, Err: []byte("not found")},
			{Code: codeOK, Method: []byte("m"), Body: nil},
		},
	}
	g := roundTripFrame(t, f)
	if len(g.Items) != 3 {
		t.Fatalf("items = %d", len(g.Items))
	}
	if !bytes.Equal(g.Items[0].Body, []byte("one")) ||
		g.Items[1].Code != codeInternal || string(g.Items[1].Err) != "not found" ||
		string(g.Items[2].Method) != "m" {
		t.Fatalf("batch round trip: %+v", g.Items)
	}
}

// TestFrameCodecZeroAlloc is the allocations gate cited by check.sh:
// steady-state encode and decode of a frame must not allocate. Encoding
// appends into a caller-owned buffer; decoding aliases the payload.
func TestFrameCodecZeroAlloc(t *testing.T) {
	f := &frame{
		Kind:   kindRequest,
		ID:     77,
		Method: []byte("jini.lookup"),
		Body:   make([]byte, 256),
	}
	dst := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		dst = appendFrame(dst[:0], f)
	}); n != 0 {
		t.Fatalf("encode allocates %.1f per op, want 0", n)
	}
	payload := appendFrame(nil, f)
	var g frame
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeFrame(&g, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decode allocates %.1f per op, want 0", n)
	}

	// Batch frames reach zero allocations once the decoder's item slice
	// has grown to capacity (first decode warms it).
	bf := &frame{Kind: kindBatchRequest, ID: 1, Items: []frameItem{
		{Method: []byte("a"), Body: []byte("1")},
		{Method: []byte("b"), Body: []byte("2")},
	}}
	bpayload := appendFrame(nil, bf)
	var bg frame
	if err := decodeFrame(&bg, bpayload); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeFrame(&bg, bpayload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("batch decode allocates %.1f per op steady-state, want 0", n)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	f := &frame{Kind: kindRequest, ID: 1, Method: []byte("m")}
	payload := appendFrame(nil, f)
	payload[0] = 99 // unknown kind
	var g frame
	if err := decodeFrame(&g, payload); err == nil {
		t.Fatal("unknown kind accepted")
	}
	payload[0] = 0 // zero kind
	if err := decodeFrame(&g, payload); err == nil {
		t.Fatal("zero kind accepted")
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	payload := appendFrame(nil, &frame{Kind: kindResponse, ID: 1})
	payload = append(payload, 0xFF)
	var g frame
	if err := decodeFrame(&g, payload); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := appendFrame(nil, &frame{
		Kind:   kindRequest,
		ID:     7,
		Method: []byte("method"),
		Err:    []byte("err"),
		Body:   []byte("body"),
	})
	var g frame
	// Every proper prefix must be rejected, not mis-parsed.
	for n := 0; n < len(full); n++ {
		if err := decodeFrame(&g, full[:n]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes accepted", n, len(full))
		}
	}
}

func TestDecodeRejectsOversizedBatchCount(t *testing.T) {
	// Hand-build a batch frame claiming 1<<40 items.
	payload := []byte{kindBatchRequest}
	payload = append(payload, 0, 0, 0, 0, 0, 0, 0, 1) // id
	payload = append(payload, codeOK)
	payload = append(payload, 0, 0, 0) // empty method/err/body
	// uvarint(1<<40)
	payload = append(payload, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)
	var g frame
	if err := decodeFrame(&g, payload); err == nil {
		t.Fatal("absurd batch count accepted")
	}
}

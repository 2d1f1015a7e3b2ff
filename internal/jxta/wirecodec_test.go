package jxta

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"gondi/internal/wire"
	"gondi/internal/wire/wiretest"
)

// Every field of both messages round-trips, and every strict prefix, a
// trailing byte, the other message and a gob body from a binary that
// predates the format are rejected.
func TestJXTAWireRoundTripAndRejects(t *testing.T) {
	var (
		req wireReq
		rsp wireRsp
	)
	wiretest.Fill(&req)
	wiretest.Fill(&rsp)
	reqBody, rspBody := appendReq(nil, &req), appendRsp(nil, &rsp)
	gotReq, err := decodeReq(reqBody)
	if err != nil || !reflect.DeepEqual(gotReq, &req) {
		t.Fatalf("request round trip:\n got %+v, %v\nwant %+v", gotReq, err, &req)
	}
	gotRsp, err := decodeRsp(rspBody)
	if err != nil || !reflect.DeepEqual(gotRsp, &rsp) {
		t.Fatalf("response round trip:\n got %+v, %v\nwant %+v", gotRsp, err, &rsp)
	}

	var gobReq bytes.Buffer
	if err := gob.NewEncoder(&gobReq).Encode(&req); err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{gobReq.Bytes(), append(bytes.Clone(reqBody), 0), append(bytes.Clone(rspBody), 0)}
	for cut := range reqBody {
		bad = append(bad, reqBody[:cut])
	}
	for cut := range rspBody {
		bad = append(bad, rspBody[:cut])
	}
	for _, b := range bad {
		if _, err := decodeReq(b); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("request decode of %x: err = %v", b, err)
		}
		if _, err := decodeRsp(b); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("response decode of %x: err = %v", b, err)
		}
	}
	if _, err := decodeReq(rspBody); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("request decoder accepted a response: %v", err)
	}
	if _, err := decodeRsp(reqBody); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("response decoder accepted a request: %v", err)
	}
}

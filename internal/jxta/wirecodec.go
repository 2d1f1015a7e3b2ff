package jxta

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"gondi/internal/wire"
)

// The rendezvous protocol's messages travel as rpc frame bodies in the
// jini registrar protocol's style (jini/wirecodec.go), on internal/wire's
// helpers: str, strs, bytes (decodes aliasing the body), attrs, strmap,
// bool, varint (zig-zag). One compound field:
//
//	adv  id str, group str, name str, attrs attrs, payload bytes,
//	     expiry varint
//
// A zero-length strs/bytes/attrs/strmap/list decodes to nil. Each
// message opens with a format byte of its own in 0x80–0xF7, where no gob
// stream starts, and its fields follow in the order listed with no tags;
// the reflection-filled round trip in wirecodec_test.go fails on a field
// the codec does not carry.
//
// wireReq (format 0x80):
//
//	adv       adv
//	lifetime  varint   (LifetimeMs)
//	onlyNew   bool
//	group     str
//	name      str
//	query     strmap
//	limit     varint
//
// wireRsp (format 0x81):
//
//	adv       adv
//	advs      uvarint count, then an adv each
//	groups    strs
//
// A message parses exactly or is rejected with an error wrapping
// wire.ErrMalformed; a gob body from a binary that predates the format
// is rejected, never misread. Upgrade a rendezvous and its peers
// together.

type wireReq struct {
	Adv        Advertisement
	LifetimeMs int64
	OnlyNew    bool
	Group      string
	Name       string
	Query      map[string]string
	Limit      int
}

type wireRsp struct {
	Adv    Advertisement
	Advs   []Advertisement
	Groups []string
}

const (
	formatReq byte = 0x80 + iota
	formatRsp
)

// encBufPool recycles encode buffers whose bytes the callee is done with
// on return: rpc copies a call's body into its own frame buffer before
// Call returns.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func appendReq(dst []byte, r *wireReq) []byte {
	dst = appendAdv(append(dst, formatReq), &r.Adv)
	dst = binary.AppendVarint(dst, r.LifetimeMs)
	dst = wire.AppendBool(dst, r.OnlyNew)
	dst = wire.AppendString(dst, r.Group)
	dst = wire.AppendString(dst, r.Name)
	dst = wire.AppendStringMap(dst, r.Query)
	return binary.AppendVarint(dst, int64(r.Limit))
}

func decodeReq(body []byte) (*wireReq, error) {
	d := wire.NewDecoder(body)
	format(&d, formatReq)
	r := &wireReq{}
	decodeAdv(&d, &r.Adv)
	r.LifetimeMs = d.Varint()
	r.OnlyNew = d.Bool()
	r.Group = d.Str()
	r.Name = d.Str()
	r.Query = d.StringMap()
	r.Limit = int(d.Varint())
	if err := finish(&d, "request"); err != nil {
		return nil, err
	}
	return r, nil
}

// encodeRsp returns rsp's encoding in a buffer of its own, sized to fit:
// rpc writes a handler's body after the handler returns, so it cannot
// come from encBufPool.
func encodeRsp(rsp *wireRsp) []byte {
	buf := encBufPool.Get().(*[]byte)
	*buf = appendRsp((*buf)[:0], rsp)
	out := bytes.Clone(*buf)
	encBufPool.Put(buf)
	return out
}

func appendRsp(dst []byte, r *wireRsp) []byte {
	dst = appendAdv(append(dst, formatRsp), &r.Adv)
	dst = binary.AppendUvarint(dst, uint64(len(r.Advs)))
	for i := range r.Advs {
		dst = appendAdv(dst, &r.Advs[i])
	}
	return wire.AppendStrings(dst, r.Groups)
}

func decodeRsp(body []byte) (*wireRsp, error) {
	d := wire.NewDecoder(body)
	format(&d, formatRsp)
	r := &wireRsp{}
	decodeAdv(&d, &r.Adv)
	if n := d.Count(6); n > 0 { // an adv is six fields of a byte at least
		r.Advs = make([]Advertisement, n)
		for i := range r.Advs {
			decodeAdv(&d, &r.Advs[i])
		}
	}
	r.Groups = d.Strs()
	if err := finish(&d, "response"); err != nil {
		return nil, err
	}
	return r, nil
}

func appendAdv(dst []byte, a *Advertisement) []byte {
	dst = wire.AppendString(dst, a.ID)
	dst = wire.AppendString(dst, a.Group)
	dst = wire.AppendString(dst, a.Name)
	dst = wire.AppendAttrs(dst, a.Attrs)
	dst = wire.AppendBytes(dst, a.Payload)
	return binary.AppendVarint(dst, a.Expiry)
}

func decodeAdv(d *wire.Decoder, a *Advertisement) {
	*a = Advertisement{ID: d.Str(), Group: d.Str(), Name: d.Str(), Attrs: d.Attrs(), Payload: d.Bytes(), Expiry: d.Varint()}
}

// format reads a message's format byte and fails d unless it is want.
func format(d *wire.Decoder, want byte) {
	if got := d.Byte(); got != want {
		d.Fail(fmt.Errorf("%w: format byte %#x, want %#x", wire.ErrMalformed, got, want))
	}
}

// finish reports d's failure, if any, for message what.
func finish(d *wire.Decoder, what string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("jxta: %s: %w", what, err)
	}
	return nil
}

package hdns

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gondi/internal/wire"
)

// Binary codec for the request path's three messages (layouts in
// wire.go; a request is walrec.go's op body plus a read tail), on
// internal/wire's helpers like rpc/codec.go:
// append-only encode into the caller's buffer — every value has an
// encoding, so encoding cannot fail — and a strict decode that either
// parses its input exactly or rejects it with errWireMalformed.
//
// Ownership: a decoded message owns its strings. Its []byte fields
// (Obj, Old) alias the input. That is safe on this path only because rpc
// already hands every handler, caller and push handler a private copy of
// the frame body (the append([]byte(nil), f.Body...) sites in
// rpc.serveConn and rpc.Client.readLoop); a decoder fed from a reused
// buffer must copy them.

// errWireMalformed is what every decode failure wraps.
var errWireMalformed = errors.New("hdns: malformed wire message")

// appendReq appends a request: reqV1, op's body (walrec.go), then the
// read tail.
func appendReq(dst []byte, op *Op) []byte {
	dst = appendOp(append(dst, reqV1), op)
	dst = wire.AppendString(dst, op.Filter)
	dst = binary.AppendVarint(dst, int64(op.Scope))
	dst = binary.AppendVarint(dst, int64(op.Limit))
	dst = binary.AppendUvarint(dst, op.WatchID)
	return wire.AppendString(dst, op.Secret)
}

func decodeReq(body []byte) (*Op, error) {
	d := wire.NewDecoder(body)
	if d.Byte() != reqV1 {
		d.Fail(errFormat)
	}
	op := new(Op)
	decodeOp(&d, op)
	op.Filter = d.Str()
	op.Scope = int(d.Varint())
	op.Limit = int(d.Varint())
	op.WatchID = d.Uvarint()
	op.Secret = d.Str()
	if err := finish(&d, "req"); err != nil {
		return nil, err
	}
	return op, nil
}

// Bits of NodeView's flags byte.
const (
	flagExists = 1 << iota
	flagIsCtx
)

func appendRsp(dst []byte, r *Rsp) []byte {
	var flags byte
	if r.View.Exists {
		flags |= flagExists
	}
	if r.View.IsCtx {
		flags |= flagIsCtx
	}
	dst = append(dst, flags)
	dst = wire.AppendBytes(dst, r.View.Obj)
	dst = wire.AppendAttrs(dst, r.View.Attrs)
	dst = binary.AppendUvarint(dst, uint64(len(r.List)))
	for i := range r.List {
		e := &r.List[i]
		dst = wire.AppendString(dst, e.Name)
		dst = wire.AppendBool(dst, e.IsCtx)
		dst = wire.AppendBytes(dst, e.Obj)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Hits)))
	for i := range r.Hits {
		h := &r.Hits[i]
		dst = wire.AppendStrings(dst, h.Name)
		dst = wire.AppendBool(dst, h.IsCtx)
		dst = wire.AppendBytes(dst, h.Obj)
		dst = wire.AppendAttrs(dst, h.Attrs)
	}
	dst = binary.AppendUvarint(dst, r.WatchID)
	return binary.AppendVarint(dst, r.Expiry)
}

// encodeRsp encodes a node's answer. rpc writes the body after the
// handler returns, so it cannot come from a pool; it is sized for the
// common (lookup) answer.
func encodeRsp(r *Rsp) []byte {
	return appendRsp(make([]byte, 0, 64+len(r.View.Obj)), r)
}

func decodeRsp(body []byte) (*Rsp, error) {
	d := wire.NewDecoder(body)
	r := &Rsp{}
	flags := d.Flags(flagExists | flagIsCtx)
	r.View = NodeView{Exists: flags&flagExists != 0, IsCtx: flags&flagIsCtx != 0, Obj: d.Bytes(), Attrs: d.Attrs()}
	if n := d.Count(3); n > 0 { // name len + flag + obj len
		r.List = make([]ListEntry, n)
		for i := range r.List {
			r.List[i] = ListEntry{Name: d.Str(), IsCtx: d.Bool(), Obj: d.Bytes()}
		}
	}
	if n := d.Count(4); n > 0 { // name count + flag + obj len + attr count
		r.Hits = make([]SearchHit, n)
		for i := range r.Hits {
			r.Hits[i] = SearchHit{Name: d.Strs(), IsCtx: d.Bool(), Obj: d.Bytes(), Attrs: d.Attrs()}
		}
	}
	r.WatchID = d.Uvarint()
	r.Expiry = d.Varint()
	if err := finish(&d, "rsp"); err != nil {
		return nil, err
	}
	return r, nil
}

func appendEvent(dst []byte, m *EventMsg) []byte {
	dst = binary.AppendUvarint(dst, m.WatchID)
	dst = append(dst, byte(m.Kind))
	dst = wire.AppendStrings(dst, m.Name)
	dst = wire.AppendBytes(dst, m.Obj)
	dst = wire.AppendBytes(dst, m.Old)
	return wire.AppendStrings(dst, m.Name2)
}

func decodeEvent(body []byte) (EventMsg, error) {
	d := wire.NewDecoder(body)
	m := EventMsg{
		WatchID: d.Uvarint(),
		Kind:    OpKind(d.Byte()),
		Name:    d.Strs(),
		Obj:     d.Bytes(),
		Old:     d.Bytes(),
		Name2:   d.Strs(),
	}
	return m, finish(&d, "event")
}

// finish reports d's failure, if any, as errWireMalformed for message
// what.
func finish(d *wire.Decoder, what string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: %s: %w", errWireMalformed, what, err)
	}
	return nil
}

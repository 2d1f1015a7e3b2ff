package hdns

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"gondi/internal/wire"
)

// One op layout, four containers, on internal/wire's helpers: a client
// request, a WAL record, a replication frame and a snapshot all carry
// the op body below. Encoding appends to the caller's buffer; decoding
// parses exactly or rejects. Not gob: its bytes depend on Go field names
// and map order, it costs a type description per record, and its
// decoder compiles a type engine for every frame on every replica.
//
//	op body     kind uint8, replace uint8 (ReplaceAttrs),
//	            lease uvarint (LeaseMillis), now uvarint (issuer clock, unix ms),
//	            id str, name strs, name2 strs, obj str, attrs attrs,
//	            mods uvarint count, then per entry: op uint8, id str, vals strs
//	request     reqV1, op body, read tail (wirecodec.go)
//	WAL record  version uvarint (store version after the op), op body
//	frame       frameV1, uvarint op count, then per op: uvarint length, op body
//	snapshot    snapV1, version uvarint, uvarint op count, then per op:
//	            uvarint length, op body (treeOps' walk of the tree)
//
// Attribute keys are written in sorted order, so a tree encodes to one
// snapshot.
const (
	// The format bytes lie in 0x80–0xF7, where no gob stream starts (its
	// first byte is a length, 0x01–0x7F or 0xF8–0xFF): an older binary's
	// gob is told apart by its first byte.
	frameV1 byte = 0x80
	snapV1  byte = 0x81
	reqV1   byte = 0x82
	// minOpBody is the shortest op body, one byte per field.
	minOpBody = 10
)

var errFormat = fmt.Errorf("%w: unknown format byte", wire.ErrMalformed)

// appendOp appends op's body to dst.
func appendOp(dst []byte, op *Op) []byte {
	dst = wire.AppendBool(append(dst, byte(op.Kind)), op.ReplaceAttrs)
	dst = binary.AppendUvarint(dst, uint64(op.LeaseMillis))
	dst = binary.AppendUvarint(dst, uint64(op.Now))
	dst = wire.AppendString(dst, op.ID)
	dst = wire.AppendStrings(dst, op.Name)
	dst = wire.AppendStrings(dst, op.Name2)
	dst = wire.AppendBytes(dst, op.Obj)
	dst = wire.AppendAttrs(dst, op.Attrs)
	dst = binary.AppendUvarint(dst, uint64(len(op.Mods)))
	for _, m := range op.Mods {
		dst = append(dst, byte(m.Op))
		dst = wire.AppendString(dst, m.ID)
		dst = wire.AppendStrings(dst, m.Vals)
	}
	return dst
}

// decodeOp reads one op body from d into op. Obj aliases d's input, as
// a request's may; the containers whose ops live on in the tree copy it
// (a WAL buffer is reused across records, a frame is kept by the
// sender's retransmit store, and a snapshot is one large buffer).
func decodeOp(d *wire.Decoder, op *Op) {
	*op = Op{
		Kind:         OpKind(d.Byte()),
		ReplaceAttrs: d.Byte() != 0,
		LeaseMillis:  int64(d.Uvarint()),
		Now:          int64(d.Uvarint()),
		ID:           d.Str(),
		Name:         d.Strs(),
		Name2:        d.Strs(),
		Obj:          d.Bytes(),
		Attrs:        d.Attrs(),
	}
	if n := d.Count(3); n > 0 { // a mod is at least op + id len + val count
		op.Mods = make([]ModRec, n)
		for i := range op.Mods {
			op.Mods[i] = ModRec{Op: d.Byte(), ID: d.Str(), Vals: d.Strs()}
		}
	}
}

// appendWALOp appends the record payload for (version, op) to dst.
func appendWALOp(dst []byte, version uint64, op *Op) []byte {
	return appendOp(binary.AppendUvarint(dst, version), op)
}

// decodeWALOp parses a record payload.
func decodeWALOp(b []byte) (version uint64, op *Op, err error) {
	d := wire.NewDecoder(b)
	version = d.Uvarint()
	op = new(Op)
	decodeOp(&d, op)
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("hdns: wal record: %w", err)
	}
	op.Obj = bytes.Clone(op.Obj)
	return version, op, nil
}

// encodeFrame returns ops as one replication frame. The frame gets a
// buffer of its own, sized to fit: jgroups keeps a sent payload for
// retransmission, so it must not come from encBufPool.
func encodeFrame(ops []*Op) []byte {
	buf := encBufPool.Get().(*[]byte)
	f := binary.AppendUvarint(append((*buf)[:0], frameV1), uint64(len(ops)))
	for _, op := range ops {
		at := len(f)
		f = wire.PrefixBytes(appendOp(f, op), at)
	}
	frame := bytes.Clone(f)
	*buf = f
	encBufPool.Put(buf)
	return frame
}

// decodeFrame parses a whole replication frame, or fails without
// returning any op: a frame applies entirely or not at all.
func decodeFrame(b []byte) ([]Op, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != frameV1 {
		d.Fail(errFormat)
	}
	ops := make([]Op, d.Count(1+minOpBody))
	for i := range ops {
		_ = decodeOpBytes(&d, &ops[i])
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("hdns: replication frame: %w", err)
	}
	return ops, nil
}

// decodeOpBytes reads one length-prefixed op body from d into op, with
// Obj copied. A body that does not parse fails d too.
func decodeOpBytes(d *wire.Decoder, op *Op) error {
	od := wire.NewDecoder(d.Bytes())
	decodeOp(&od, op)
	if err := od.Finish(); err != nil {
		d.Fail(err)
		return err
	}
	op.Obj = bytes.Clone(op.Obj)
	return nil
}

// appendSnapshot appends the snapshot of the tree under root at version.
func appendSnapshot(dst []byte, version uint64, root *entry) []byte {
	dst = binary.AppendUvarint(append(dst, snapV1), version)
	at, n := len(dst), 0
	treeOps(root, func(op *Op) {
		body := len(dst)
		dst = wire.PrefixBytes(appendOp(dst, op), body)
		n++
	})
	return slices.Insert(dst, at, binary.AppendUvarint(nil, uint64(n))...)
}

// decodeSnapshot hands apply each op of a snapshot in turn and returns
// the store version it captured.
func decodeSnapshot(b []byte, apply func(op *Op)) (uint64, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != snapV1 {
		d.Fail(errFormat)
	}
	version := d.Uvarint()
	var op Op
	for n := d.Count(1 + minOpBody); n > 0 && decodeOpBytes(&d, &op) == nil; n-- {
		apply(&op)
	}
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("hdns: snapshot: %w", err)
	}
	return version, nil
}

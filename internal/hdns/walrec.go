package hdns

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gondi/internal/wire"
)

// One op layout, two containers, on internal/wire's helpers: a WAL
// record and a replication frame both carry the op body below. Encoding
// appends to the caller's buffer; decoding parses exactly or rejects.
// Not gob: it costs a type description per record, and its decoder
// compiles a type engine for every frame on every replica.
//
//	op body     kind uint8, replace uint8 (ReplaceAttrs),
//	            lease uvarint (LeaseMillis), now uvarint (issuer clock, unix ms),
//	            id str, name strs, name2 strs, obj str, attrs attrs,
//	            mods uvarint count, then per entry: op uint8, id str, vals strs
//	WAL record  version uvarint (store version after the op), op body
//	frame       frameV1, uvarint op count, then per op: uvarint length, op body
const (
	// frameV1 lies in 0x80–0xF7, where no gob stream starts (its first
	// byte is a length, 0x01–0x7F or 0xF8–0xFF): an older binary's gob
	// frame is rejected by its first byte.
	frameV1 byte = 0x80
	// minOpBody is the shortest op body, one byte per field.
	minOpBody = 10
)

var errFrameFormat = fmt.Errorf("%w: unknown replication frame format", wire.ErrMalformed)

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

// decodeOp reads one op body from d into op. The op's byte fields are
// copied: a WAL buffer is reused across records, and a frame is kept by
// the sender's retransmit store while the op lives on in the tree.
func decodeOp(d *wire.Decoder, op *Op) {
	*op = Op{
		Kind:         OpKind(d.Byte()),
		ReplaceAttrs: d.Byte() != 0,
		LeaseMillis:  int64(d.Uvarint()),
		Now:          int64(d.Uvarint()),
		ID:           d.Str(),
		Name:         d.Strs(),
		Name2:        d.Strs(),
		Obj:          bytes.Clone(d.Bytes()),
		Attrs:        d.Attrs(),
	}
	if n := d.Count(3); n > 0 { // a mod is at least op + id len + val count
		op.Mods = make([]ModRec, n)
		for i := range op.Mods {
			op.Mods[i] = ModRec{Op: int(d.Byte()), ID: d.Str(), Vals: d.Strs()}
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
		d.Fail(errFrameFormat)
	}
	ops := make([]Op, d.Count(1+minOpBody))
	for i := range ops {
		od := wire.NewDecoder(d.Bytes())
		decodeOp(&od, &ops[i])
		if err := od.Finish(); err != nil {
			d.Fail(err)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("hdns: replication frame: %w", err)
	}
	return ops, nil
}

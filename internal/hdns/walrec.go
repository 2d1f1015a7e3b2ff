package hdns

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gondi/internal/wire"
)

// WAL record payload codec: one applied replicated op plus the store
// version it produced, on internal/wire's helpers (append-only encode
// into the caller's buffer, strict reject-exactly decode). gob
// would cost a type description per record and an order of magnitude in
// replay speed — at millions of entries per shard the restart drill
// lives or dies on this loop.
//
// Payload layout (inside one wal.AppendRecord frame):
//
//	version  uvarint     store version after applying the op
//	kind     uint8
//	replace  uint8       (ReplaceAttrs)
//	lease    uvarint     (LeaseMillis, non-negative by construction)
//	now      uvarint     (issuer clock, unix millis)
//	id       str         (uvarint len + bytes)
//	name     strs        (uvarint count, then str each)
//	name2    strs
//	obj      str
//	attrs    uvarint count, then per entry: key str, vals strs
//	mods     uvarint count, then per entry: op uint8, id str, vals strs

// appendWALOp appends the record payload for (version, op) to dst.
func appendWALOp(dst []byte, version uint64, op *Op) []byte {
	dst = binary.AppendUvarint(dst, version)
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

// decodeWALOp parses a record payload. The op's byte fields are copied
// (the wal buffer is reused across records).
func decodeWALOp(b []byte) (version uint64, op *Op, err error) {
	d := wire.NewDecoder(b)
	version = d.Uvarint()
	op = &Op{
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
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("hdns: wal record: %w", err)
	}
	return version, op, nil
}

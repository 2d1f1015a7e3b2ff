package hdns

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// WAL record payload codec: one applied replicated op plus the store
// version it produced, hand-rolled in the rpc codec style (append-only
// encode into the caller's buffer, strict reject-exactly decode). gob
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
var errWALRecTrailing = errors.New("hdns: trailing bytes after wal record")

// appendWALOp appends the record payload for (version, op) to dst.
func appendWALOp(dst []byte, version uint64, op *Op) []byte {
	dst = binary.AppendUvarint(dst, version)
	dst = append(dst, byte(op.Kind), boolByte(op.ReplaceAttrs))
	dst = binary.AppendUvarint(dst, uint64(op.LeaseMillis))
	dst = binary.AppendUvarint(dst, uint64(op.Now))
	dst = appendWALString(dst, op.ID)
	dst = appendWALStrings(dst, op.Name)
	dst = appendWALStrings(dst, op.Name2)
	dst = appendWALString(dst, string(op.Obj))
	dst = appendWALAttrs(dst, op.Attrs)
	dst = binary.AppendUvarint(dst, uint64(len(op.Mods)))
	for _, m := range op.Mods {
		dst = append(dst, byte(m.Op))
		dst = appendWALString(dst, m.ID)
		dst = appendWALStrings(dst, m.Vals)
	}
	return dst
}

// decodeWALOp parses a record payload. The op's byte fields are copied
// (the wal buffer is reused across records).
func decodeWALOp(b []byte) (version uint64, op *Op, err error) {
	version, b, err = takeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if len(b) < 2 {
		return 0, nil, errWALRecTruncated
	}
	op = &Op{Kind: OpKind(b[0]), ReplaceAttrs: b[1] != 0}
	b = b[2:]
	var u uint64
	if u, b, err = takeUvarint(b); err != nil {
		return 0, nil, err
	}
	op.LeaseMillis = int64(u)
	if u, b, err = takeUvarint(b); err != nil {
		return 0, nil, err
	}
	op.Now = int64(u)
	if op.ID, b, err = takeWALString(b); err != nil {
		return 0, nil, err
	}
	if op.Name, b, err = takeWALStrings(b); err != nil {
		return 0, nil, err
	}
	if op.Name2, b, err = takeWALStrings(b); err != nil {
		return 0, nil, err
	}
	var obj string
	if obj, b, err = takeWALString(b); err != nil {
		return 0, nil, err
	}
	if obj != "" {
		op.Obj = []byte(obj)
	}
	if op.Attrs, b, err = takeWALAttrs(b); err != nil {
		return 0, nil, err
	}
	if u, b, err = takeUvarint(b); err != nil {
		return 0, nil, err
	}
	if u > uint64(len(b)) {
		return 0, nil, errWALRecTruncated
	}
	for i := uint64(0); i < u; i++ {
		if len(b) < 1 {
			return 0, nil, errWALRecTruncated
		}
		m := ModRec{Op: int(b[0])}
		b = b[1:]
		if m.ID, b, err = takeWALString(b); err != nil {
			return 0, nil, err
		}
		if m.Vals, b, err = takeWALStrings(b); err != nil {
			return 0, nil, err
		}
		op.Mods = append(op.Mods, m)
	}
	if len(b) != 0 {
		return 0, nil, errWALRecTrailing
	}
	return version, op, nil
}

// errWALRecTruncated is shared with the request codec (wirecodec.go),
// which decodes with the same take* helpers.
var errWALRecTruncated = errors.New("hdns: truncated record")

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendWALString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendWALStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendWALString(dst, s)
	}
	return dst
}

func appendWALAttrs(dst []byte, attrs map[string][]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for k, vals := range attrs {
		dst = appendWALString(dst, k)
		dst = appendWALStrings(dst, vals)
	}
	return dst
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, used := binary.Uvarint(b)
	if used <= 0 {
		return 0, nil, errWALRecTruncated
	}
	return v, b[used:], nil
}

func takeWALString(b []byte) (string, []byte, error) {
	n, b, err := takeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, errWALRecTruncated
	}
	return string(b[:n]), b[n:], nil
}

func takeWALStrings(b []byte) ([]string, []byte, error) {
	n, b, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: %d strings in %d bytes", errWALRecTruncated, n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var s string
		if s, b, err = takeWALString(b); err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, b, nil
}

// takeWALAttrs consumes an attribute map; an empty one yields nil.
func takeWALAttrs(b []byte) (map[string][]string, []byte, error) {
	n, b, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) { // each entry needs ≥1 byte; cheap bound check
		return nil, nil, errWALRecTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	attrs := make(map[string][]string, n)
	for i := uint64(0); i < n; i++ {
		var k string
		var vals []string
		if k, b, err = takeWALString(b); err != nil {
			return nil, nil, err
		}
		if vals, b, err = takeWALStrings(b); err != nil {
			return nil, nil, err
		}
		attrs[k] = vals
	}
	return attrs, b, nil
}

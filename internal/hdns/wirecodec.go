package hdns

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary codec for the request path's three messages (layouts in
// wire.go), in the style of rpc/codec.go and walrec.go: append-only
// encode into the caller's buffer — every value has an encoding, so
// encoding cannot fail — and a strict decode that either parses its
// input exactly or rejects it with errWireMalformed.
//
// Ownership: a decoded message owns its strings. Its []byte fields
// (Obj, Old) alias the input. That is safe on this path only because rpc
// already hands every handler, caller and push handler a private copy of
// the frame body (the append([]byte(nil), f.Body...) sites in
// rpc.serveConn and rpc.Client.readLoop); a decoder fed from a reused
// buffer must copy them.

// errWireMalformed is what every decode failure wraps.
var errWireMalformed = errors.New("hdns: malformed wire message")

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendReq(dst []byte, r *Req) []byte {
	dst = appendWALStrings(dst, r.Name)
	dst = appendWALStrings(dst, r.Name2)
	dst = appendBytes(dst, r.Obj)
	dst = appendWALAttrs(dst, r.Attrs)
	dst = append(dst, boolByte(r.ReplaceAttrs))
	dst = binary.AppendUvarint(dst, uint64(len(r.Mods)))
	for i := range r.Mods {
		m := &r.Mods[i]
		dst = binary.AppendVarint(dst, int64(m.Op))
		dst = appendWALString(dst, m.ID)
		dst = appendWALStrings(dst, m.Vals)
	}
	dst = appendWALString(dst, r.Filter)
	dst = binary.AppendVarint(dst, int64(r.Scope))
	dst = binary.AppendVarint(dst, int64(r.Limit))
	dst = binary.AppendVarint(dst, r.LeaseMillis)
	dst = binary.AppendUvarint(dst, r.WatchID)
	return appendWALString(dst, r.Secret)
}

func decodeReq(body []byte) (*Req, error) {
	d := wireDecoder{b: body}
	r := &Req{
		Name:         d.strs(),
		Name2:        d.strs(),
		Obj:          d.bytes(),
		Attrs:        d.attrs(),
		ReplaceAttrs: d.bool(),
	}
	if n := d.count(3); n > 0 { // a mod is at least op + id len + val count
		r.Mods = make([]ModRec, n)
		for i := range r.Mods {
			r.Mods[i] = ModRec{Op: int(d.varint()), ID: d.str(), Vals: d.strs()}
		}
	}
	r.Filter = d.str()
	r.Scope = int(d.varint())
	r.Limit = int(d.varint())
	r.LeaseMillis = d.varint()
	r.WatchID = d.uvarint()
	r.Secret = d.str()
	if err := d.finish("req"); err != nil {
		return nil, err
	}
	return r, nil
}

// Bits of NodeView's flags byte.
const (
	flagExists = 1 << iota
	flagIsCtx
)

func appendRsp(dst []byte, r *Rsp) []byte {
	dst = append(dst, boolByte(r.View.Exists)|boolByte(r.View.IsCtx)<<1)
	dst = appendBytes(dst, r.View.Obj)
	dst = appendWALAttrs(dst, r.View.Attrs)
	dst = binary.AppendUvarint(dst, uint64(len(r.List)))
	for i := range r.List {
		e := &r.List[i]
		dst = appendWALString(dst, e.Name)
		dst = append(dst, boolByte(e.IsCtx))
		dst = appendBytes(dst, e.Obj)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Hits)))
	for i := range r.Hits {
		h := &r.Hits[i]
		dst = appendWALStrings(dst, h.Name)
		dst = append(dst, boolByte(h.IsCtx))
		dst = appendBytes(dst, h.Obj)
		dst = appendWALAttrs(dst, h.Attrs)
	}
	dst = binary.AppendUvarint(dst, r.WatchID)
	dst = binary.AppendVarint(dst, r.Expiry)
	in := &r.Info
	dst = appendWALString(dst, in.Addr)
	dst = appendWALString(dst, in.Group)
	dst = appendWALStrings(dst, in.Members)
	dst = append(dst, boolByte(in.Coordinator))
	dst = binary.AppendVarint(dst, int64(in.Entries))
	dst = binary.AppendUvarint(dst, in.Version)
	dst = appendWALString(dst, in.Mode)
	dst = binary.AppendVarint(dst, int64(in.ShardGroups))
	dst = binary.AppendVarint(dst, int64(in.ShardIndex))
	dst = binary.AppendVarint(dst, in.WALBytes)
	dst = append(dst, boolByte(in.NeedsRepair))
	dst = binary.AppendVarint(dst, int64(in.Quarantined))
	return binary.AppendUvarint(dst, in.Repairs)
}

func decodeRsp(body []byte) (*Rsp, error) {
	d := wireDecoder{b: body}
	r := &Rsp{}
	flags := d.flags(flagExists | flagIsCtx)
	r.View = NodeView{Exists: flags&flagExists != 0, IsCtx: flags&flagIsCtx != 0, Obj: d.bytes(), Attrs: d.attrs()}
	if n := d.count(3); n > 0 { // name len + flag + obj len
		r.List = make([]ListEntry, n)
		for i := range r.List {
			r.List[i] = ListEntry{Name: d.str(), IsCtx: d.bool(), Obj: d.bytes()}
		}
	}
	if n := d.count(4); n > 0 { // name count + flag + obj len + attr count
		r.Hits = make([]SearchHit, n)
		for i := range r.Hits {
			r.Hits[i] = SearchHit{Name: d.strs(), IsCtx: d.bool(), Obj: d.bytes(), Attrs: d.attrs()}
		}
	}
	r.WatchID = d.uvarint()
	r.Expiry = d.varint()
	r.Info = NodeInfo{
		Addr:        d.str(),
		Group:       d.str(),
		Members:     d.strs(),
		Coordinator: d.bool(),
		Entries:     int(d.varint()),
		Version:     d.uvarint(),
		Mode:        d.str(),
		ShardGroups: int(d.varint()),
		ShardIndex:  int(d.varint()),
		WALBytes:    d.varint(),
		NeedsRepair: d.bool(),
		Quarantined: int(d.varint()),
		Repairs:     d.uvarint(),
	}
	if err := d.finish("rsp"); err != nil {
		return nil, err
	}
	return r, nil
}

func appendEvent(dst []byte, m *EventMsg) []byte {
	dst = binary.AppendUvarint(dst, m.WatchID)
	dst = append(dst, byte(m.Kind))
	dst = appendWALStrings(dst, m.Name)
	dst = appendBytes(dst, m.Obj)
	return appendBytes(dst, m.Old)
}

func decodeEvent(body []byte) (EventMsg, error) {
	d := wireDecoder{b: body}
	m := EventMsg{
		WatchID: d.uvarint(),
		Kind:    OpKind(d.byte()),
		Name:    d.strs(),
		Obj:     d.bytes(),
		Old:     d.bytes(),
	}
	return m, d.finish("event")
}

// wireDecoder walks a message front to back. The first failure sticks
// and every later take yields zero, so a decode function reads as the
// field list and checks once, in finish.
type wireDecoder struct {
	b   []byte
	err error
}

func (d *wireDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// finish reports the sticky error, or trailing bytes: a message parses
// exactly or is rejected.
func (d *wireDecoder) finish(what string) error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("%w: %s: %v", errWireMalformed, what, d.err)
	}
	return nil
}

// take runs one of walrec.go's take* helpers at the cursor.
func take[T any](d *wireDecoder, f func([]byte) (T, []byte, error)) T {
	v, rest, err := f(d.b)
	if err != nil {
		d.fail(err)
		var zero T
		return zero
	}
	d.b = rest
	return v
}

func (d *wireDecoder) uvarint() uint64            { return take(d, takeUvarint) }
func (d *wireDecoder) str() string                { return take(d, takeWALString) }
func (d *wireDecoder) strs() []string             { return take(d, takeWALStrings) }
func (d *wireDecoder) attrs() map[string][]string { return take(d, takeWALAttrs) }

// varint reads a signed (zig-zag) field.
func (d *wireDecoder) varint() int64 {
	v, used := binary.Varint(d.b)
	if used <= 0 {
		d.fail(errWALRecTruncated)
		return 0
	}
	d.b = d.b[used:]
	return v
}

// count reads an element count and bounds it by what the remaining
// bytes could hold at minSize bytes per element, before the caller
// allocates anything: a corrupt count cannot size a slice.
func (d *wireDecoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.fail(fmt.Errorf("%w: %d elements in %d bytes", errWALRecTruncated, n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *wireDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(errWALRecTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// flags reads a byte of flag bits and rejects any bit outside mask, so
// each value has exactly one encoding.
func (d *wireDecoder) flags(mask byte) byte {
	v := d.byte()
	if v&^mask != 0 {
		d.fail(fmt.Errorf("flags byte %#x outside mask %#x", v, mask))
		return 0
	}
	return v
}

func (d *wireDecoder) bool() bool { return d.flags(1) == 1 }

// bytes reads a length-prefixed field aliasing the input (see the
// ownership note at the top); zero length yields nil.
func (d *wireDecoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

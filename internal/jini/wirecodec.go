package jini

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"gondi/internal/wire"
)

// The registrar protocol's messages travel as rpc frame bodies in a
// hand-rolled binary encoding on internal/wire's helpers, as hdns's do
// (hdns/wire.go). The bind proxy speaks the same two messages: a
// proxied registration is a wireReq whose OnlyNew asks for fail-if-bound.
//
// Field encodings are internal/wire's: str, strs, bytes (decodes
// aliasing the body), strmap, bool (0 or 1), varint (zig-zag), uvarint.
// Three compound fields:
//
//	item     id str, types strs, service bytes, entries
//	entries  uvarint count, then per entry: type str, fields strmap
//	time     presence bool, then (if 1) UnixNano varint; the zero time
//	         is the 0 byte alone, so it round-trips as zero
//
// A zero-length strs/bytes/strmap/list decodes to nil, as gob's omitted
// zero values did. Each message opens with a format byte of its own in
// 0x80–0xF7, where no gob stream starts, and its fields follow in the
// order listed with no tags, so a new field means a new line here, in
// the codec and nowhere else — the reflection-filled round trip in
// wirecodec_test.go fails until it has one.
//
// wireReq (format 0x80):
//
//	item      item
//	template  id str, types strs, entries
//	lease     varint    (LeaseMs)
//	id        str
//	max       varint
//	mask      varint
//	regID     uvarint
//	onlyNew   bool
//
// wireRsp (format 0x81):
//
//	reg       id str, expiry time
//	items     uvarint count, then an item each
//	expiry    time
//	regID     uvarint
//	groups    strs
//
// ServiceEvent, the jini.event push (format 0x82):
//
//	regID       uvarint
//	transition  varint
//	id          str
//	item        presence bool, then (if 1) item
//
// A message parses exactly or is rejected with an error wrapping
// wire.ErrMalformed: a truncated body, trailing bytes, the wrong format
// byte, or a gob body from a binary that predates this format. Mixed-
// version client/LUS pairs are unsupported, as for HDNS frames: upgrade
// the LUS, its bind proxy and their clients together.
//
// Ownership: a decoded message owns its strings; ServiceItem.Service
// aliases the input, which is safe because rpc hands every handler,
// caller and push handler a private copy of the frame body.

type wireReq struct {
	Item     ServiceItem
	Template ServiceTemplate
	LeaseMs  int64
	ID       ServiceID
	Max      int
	Mask     int
	RegID    uint64
	// OnlyNew asks the bind proxy for atomic fail-if-bound registration.
	OnlyNew bool
}

type wireRsp struct {
	Reg    Registration
	Items  []ServiceItem
	Expiry time.Time
	RegID  uint64
	Groups []string
}

const (
	formatReq byte = 0x80 + iota
	formatRsp
	formatEvent
)

// encBufPool recycles encode buffers whose bytes the callee is done with
// on return: rpc copies a call's body into its own frame buffer before
// Call returns, and Push writes before it returns.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

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

func appendReq(dst []byte, r *wireReq) []byte {
	dst = appendItem(append(dst, formatReq), &r.Item)
	dst = wire.AppendString(dst, string(r.Template.ID))
	dst = wire.AppendStrings(dst, r.Template.Types)
	dst = appendEntries(dst, r.Template.Entries)
	dst = binary.AppendVarint(dst, r.LeaseMs)
	dst = wire.AppendString(dst, string(r.ID))
	dst = binary.AppendVarint(dst, int64(r.Max))
	dst = binary.AppendVarint(dst, int64(r.Mask))
	dst = binary.AppendUvarint(dst, r.RegID)
	return wire.AppendBool(dst, r.OnlyNew)
}

func decodeReq(body []byte) (*wireReq, error) {
	d := wire.NewDecoder(body)
	format(&d, formatReq)
	r := &wireReq{}
	decodeItem(&d, &r.Item)
	r.Template = ServiceTemplate{ID: ServiceID(d.Str()), Types: d.Strs(), Entries: decodeEntries(&d)}
	r.LeaseMs = d.Varint()
	r.ID = ServiceID(d.Str())
	r.Max = int(d.Varint())
	r.Mask = int(d.Varint())
	r.RegID = d.Uvarint()
	r.OnlyNew = d.Bool()
	if err := finish(&d, "request"); err != nil {
		return nil, err
	}
	return r, nil
}

func appendRsp(dst []byte, r *wireRsp) []byte {
	dst = wire.AppendString(append(dst, formatRsp), string(r.Reg.ID))
	dst = appendTime(dst, r.Reg.Expiry)
	dst = binary.AppendUvarint(dst, uint64(len(r.Items)))
	for i := range r.Items {
		dst = appendItem(dst, &r.Items[i])
	}
	dst = appendTime(dst, r.Expiry)
	dst = binary.AppendUvarint(dst, r.RegID)
	return wire.AppendStrings(dst, r.Groups)
}

func decodeRsp(body []byte) (*wireRsp, error) {
	d := wire.NewDecoder(body)
	format(&d, formatRsp)
	r := &wireRsp{Reg: Registration{ID: ServiceID(d.Str()), Expiry: decodeTime(&d)}}
	if n := d.Count(4); n > 0 { // id, types, service, entries: a byte each at least
		r.Items = make([]ServiceItem, n)
		for i := range r.Items {
			decodeItem(&d, &r.Items[i])
		}
	}
	r.Expiry = decodeTime(&d)
	r.RegID = d.Uvarint()
	r.Groups = d.Strs()
	if err := finish(&d, "response"); err != nil {
		return nil, err
	}
	return r, nil
}

func appendEvent(dst []byte, ev *ServiceEvent) []byte {
	dst = binary.AppendUvarint(append(dst, formatEvent), ev.RegistrationID)
	dst = binary.AppendVarint(dst, int64(ev.Transition))
	dst = wire.AppendString(dst, string(ev.ID))
	dst = wire.AppendBool(dst, ev.Item != nil)
	if ev.Item != nil {
		dst = appendItem(dst, ev.Item)
	}
	return dst
}

func decodeEvent(body []byte) (ServiceEvent, error) {
	d := wire.NewDecoder(body)
	format(&d, formatEvent)
	ev := ServiceEvent{RegistrationID: d.Uvarint(), Transition: int(d.Varint()), ID: ServiceID(d.Str())}
	if d.Bool() {
		ev.Item = new(ServiceItem)
		decodeItem(&d, ev.Item)
	}
	if err := finish(&d, "event"); err != nil {
		return ServiceEvent{}, err
	}
	return ev, nil
}

func appendItem(dst []byte, si *ServiceItem) []byte {
	dst = wire.AppendString(dst, string(si.ID))
	dst = wire.AppendStrings(dst, si.Types)
	dst = wire.AppendBytes(dst, si.Service)
	return appendEntries(dst, si.Entries)
}

func decodeItem(d *wire.Decoder, si *ServiceItem) {
	si.ID = ServiceID(d.Str())
	si.Types = d.Strs()
	si.Service = d.Bytes()
	si.Entries = decodeEntries(d)
}

func appendEntries(dst []byte, es []Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for i := range es {
		dst = wire.AppendStringMap(wire.AppendString(dst, es[i].Type), es[i].Fields)
	}
	return dst
}

func decodeEntries(d *wire.Decoder) []Entry {
	n := d.Count(2) // type length + field count
	if n == 0 {
		return nil
	}
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Type: d.Str(), Fields: d.StringMap()}
	}
	return es
}

func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return wire.AppendBool(dst, false)
	}
	return binary.AppendVarint(wire.AppendBool(dst, true), t.UnixNano())
}

func decodeTime(d *wire.Decoder) time.Time {
	if !d.Bool() {
		return time.Time{}
	}
	return time.Unix(0, d.Varint())
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
		return fmt.Errorf("jini: %s: %w", what, err)
	}
	return nil
}

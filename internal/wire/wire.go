// Package wire holds the length-prefixed binary helpers that gondi's
// hand-rolled formats share: the rpc frame, the hdns request messages
// and WAL records, core's bound-value codec, and the jini registrar and
// jxta rendezvous protocols.
//
// Encoding appends to the caller's buffer and cannot fail: every value
// has an encoding. Decoding parses its input exactly or fails with an
// error wrapping ErrMalformed, and every count read from the input is
// bounded by the bytes that remain before anything is allocated, so a
// corrupt count cannot size a slice or a map.
//
// Field encodings:
//
//	uvarint  binary.AppendUvarint
//	varint   binary.AppendVarint (zig-zag)
//	bool     one byte, 0 or 1
//	bytes    uvarint length, then the bytes
//	string   as bytes
//	strings  uvarint count, then a string each
//	attrs    uvarint count, then per entry: key string, values strings
//	strmap   uvarint count, then per entry: key string, value string
//
// The package imports no other gondi package.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrMalformed is what every decode failure wraps.
var ErrMalformed = errors.New("wire: malformed input")

var errTruncated = fmt.Errorf("%w: truncated", ErrMalformed)

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends b with its uvarint length.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// PrefixBytes makes dst[at:] a bytes field by inserting its uvarint
// length at at, so a field can be appended in place and prefixed after.
func PrefixBytes(dst []byte, at int) []byte {
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(len(dst)-at))
	dst = append(dst, hdr[:k]...)
	copy(dst[at+k:], dst[at:len(dst)-k])
	copy(dst[at:], hdr[:k])
	return dst
}

// AppendString appends s with its uvarint length.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends the count of ss, then each string.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendAttrs appends an attribute map in iteration order.
func AppendAttrs(dst []byte, attrs map[string][]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for k, vals := range attrs {
		dst = AppendString(dst, k)
		dst = AppendStrings(dst, vals)
	}
	return dst
}

// AppendStringMap appends a string map in iteration order.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for k, v := range m {
		dst = AppendString(AppendString(dst, k), v)
	}
	return dst
}

// Decoder walks a message front to back. The first failure sticks and
// every later read yields zero, so a decode function reads as the field
// list and checks once, in Finish.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b. Byte fields it returns alias b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records err (the first failure wins) and stops the walk. err
// should wrap ErrMalformed.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Finish reports the first failure, or trailing bytes: a message parses
// exactly or is rejected. The error wraps ErrMalformed.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b))
	}
	return d.err
}

// Uvarint reads an unsigned field.
func (d *Decoder) Uvarint() uint64 {
	v, used := binary.Uvarint(d.b)
	if used <= 0 {
		d.Fail(errTruncated)
		return 0
	}
	d.b = d.b[used:]
	return v
}

// Varint reads a signed (zig-zag) field.
func (d *Decoder) Varint() int64 {
	v, used := binary.Varint(d.b)
	if used <= 0 {
		d.Fail(errTruncated)
		return 0
	}
	d.b = d.b[used:]
	return v
}

// Count reads an element count and bounds it by what the remaining
// bytes could hold at minSize bytes per element, before the caller
// allocates anything.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.Fail(fmt.Errorf("%w: %d elements in %d bytes", errTruncated, n, len(d.b)))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed field aliasing the input (its capacity
// ends with the field); zero length yields nil.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Str reads a length-prefixed string (a copy).
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Strs reads a string list; an empty one yields nil.
func (d *Decoder) Strs() []string {
	n := d.Count(1) // each string needs at least its length byte
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// Attrs reads an attribute map; an empty one yields nil.
func (d *Decoder) Attrs() map[string][]string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	attrs := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		k := d.Str()
		attrs[k] = d.Strs()
	}
	return attrs
}

// StringMap reads a string map; an empty one yields nil.
func (d *Decoder) StringMap() map[string]string {
	n := d.Count(2) // each entry needs its key and value length bytes
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.Str()
		m[k] = d.Str()
	}
	return m
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.Fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Flags reads a byte of flag bits and rejects any bit outside mask, so
// each value has exactly one encoding.
func (d *Decoder) Flags(mask byte) byte {
	v := d.Byte()
	if v&^mask != 0 {
		d.Fail(fmt.Errorf("%w: flags byte %#x outside mask %#x", ErrMalformed, v, mask))
		return 0
	}
	return v
}

// Bool reads a byte that must be 0 or 1.
func (d *Decoder) Bool() bool { return d.Flags(1) == 1 }

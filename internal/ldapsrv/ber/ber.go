// Package ber implements the subset of ASN.1 BER (Basic Encoding Rules)
// needed for LDAPv3: definite-length TLV encoding of integers, octet
// strings, booleans, enumerateds, sequences, sets, and context-specific
// tagged values.
//
// A Builder appends elements into one buffer and backpatches each
// constructed element's length when it ends. A Reader walks a byte slice
// in place. Both speak one canonical form, the one the Builder writes:
// minimal lengths, minimal two's-complement integers and 0x00/0xFF
// booleans. A Reader refuses every other form, so whatever it accepts
// re-encodes to the same bytes.
package ber

import "errors"

// Tag classes and the constructed flag of an identifier octet.
const (
	ClassUniversal   = 0x00
	ClassApplication = 0x40
	ClassContext     = 0x80
	Constructed      = 0x20
)

// Universal tags used by LDAP.
const (
	TagBoolean     = 0x01
	TagInteger     = 0x02
	TagOctetString = 0x04
	TagEnumerated  = 0x0A
	Sequence       = ClassUniversal | Constructed | 0x10
	Set            = ClassUniversal | Constructed | 0x11
)

// MaxLengthBytes bounds a long-form length field.
const MaxLengthBytes = 4

// Errors.
var (
	ErrTruncated  = errors.New("ber: truncated element")
	ErrIndefinite = errors.New("ber: indefinite lengths unsupported")
	ErrTagNumber  = errors.New("ber: multi-byte tag numbers unsupported")
	ErrLength     = errors.New("ber: length not in minimal form")
	ErrTag        = errors.New("ber: unexpected tag")
	ErrInteger    = errors.New("ber: integer not in minimal form")
	ErrBoolean    = errors.New("ber: boolean not 0x00 or 0xFF")
	ErrTrailing   = errors.New("ber: trailing data")
)

// Builder appends BER elements into one buffer.
type Builder struct {
	buf []byte
}

// NewBuilder returns a Builder that appends to buf. The zero Builder
// appends to a nil buffer.
func NewBuilder(buf []byte) Builder { return Builder{buf: buf} }

// Bytes returns the encoded elements.
func (b *Builder) Bytes() []byte { return b.buf }

// Begin writes a constructed element's tag and reserves one length byte;
// the element's content is everything appended until End(Begin(tag)).
func (b *Builder) Begin(tag byte) int {
	b.buf = append(b.buf, tag, 0)
	return len(b.buf)
}

// End backpatches the length of the element whose content starts at
// start: in place when it fits the short form, otherwise in minimal long
// form, shifting the content up to make room.
func (b *Builder) End(start int) {
	n := len(b.buf) - start
	var hdr [2 + MaxLengthBytes]byte
	h := appendHeader(hdr[:0], b.buf[start-2], n)
	if extra := h[2:]; len(extra) > 0 {
		b.buf = append(b.buf, extra...) // grows the buffer; overwritten below
		copy(b.buf[start+len(extra):], b.buf[start:start+n])
	}
	copy(b.buf[start-2:], h)
}

// Str appends a primitive element whose content is s.
func (b *Builder) Str(tag byte, s string) {
	b.buf = append(appendHeader(b.buf, tag, len(s)), s...)
}

// Int appends a primitive element holding v in minimal two's complement.
func (b *Builder) Int(tag byte, v int64) {
	n := 1
	for n < 8 && v>>(8*n-1) != 0 && v>>(8*n-1) != -1 {
		n++
	}
	b.buf = append(b.buf, tag, byte(n))
	for i := n - 1; i >= 0; i-- {
		b.buf = append(b.buf, byte(v>>(8*i)))
	}
}

// Bool appends a primitive element holding 0xFF for true, 0x00 for false.
func (b *Builder) Bool(tag byte, v bool) {
	c := byte(0)
	if v {
		c = 0xFF
	}
	b.buf = append(b.buf, tag, 1, c)
}

// appendHeader appends tag and the minimal form of length n.
func appendHeader(buf []byte, tag byte, n int) []byte {
	if n < 0x80 {
		return append(buf, tag, byte(n))
	}
	k := 1
	for n>>(8*k) > 0 {
		k++
	}
	buf = append(buf, tag, byte(0x80|k))
	for i := k - 1; i >= 0; i-- {
		buf = append(buf, byte(n>>(8*i)))
	}
	return buf
}

// Header parses the identifier and length octets at the start of b. It
// returns the tag, the content length and the header's size; the
// content need not be present yet (a stream reader reads it next).
func Header(b []byte) (tag byte, n, size int, err error) {
	if len(b) < 2 {
		return 0, 0, 0, ErrTruncated
	}
	tag, n = b[0], int(b[1])
	k := n & 0x7F
	switch {
	case tag&0x1F == 0x1F:
		return 0, 0, 0, ErrTagNumber
	case n < 0x80:
		return tag, n, 2, nil
	case k == 0:
		return 0, 0, 0, ErrIndefinite
	case k > MaxLengthBytes:
		return 0, 0, 0, ErrLength
	case len(b) < 2+k:
		return 0, 0, 0, ErrTruncated
	case b[2] == 0 || k == 1 && b[2] < 0x80:
		return 0, 0, 0, ErrLength
	}
	n = 0
	for _, c := range b[2 : 2+k] {
		n = n<<8 | int(c)
	}
	return tag, n, 2 + k, nil
}

// next returns the tag of the element at the start of b, its header's
// size and its body's length.
func next(b []byte) (tag byte, size, n int, err error) {
	tag, n, size, err = Header(b)
	if err == nil && n > len(b)-size {
		err = ErrTruncated
	}
	return tag, size, n, err
}

// Reader reads BER elements in place from a byte slice: every body it
// returns is a subslice of its input. Its helpers keep the first error:
// after it every helper returns a zero value, so a caller reads all its
// fields and checks Err once. The readers entered from one NewReader
// share that error.
type Reader struct {
	// b is the whole input and r reads b[off:end]. Reading moves off
	// and never stores a slice, so a Reader and its error can live on
	// the caller's stack.
	b        []byte
	off, end int
	err      *error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b, end: len(b), err: new(error)} }

// Err returns the first error any reader sharing r's error met.
func (r *Reader) Err() error { return *r.err }

// Fail records err unless an error is already recorded.
func (r *Reader) Fail(err error) {
	if *r.err == nil {
		*r.err = err
	}
	r.off = r.end
}

// More reports whether an element is left to read.
func (r *Reader) More() bool { return *r.err == nil && r.off < r.end }

// Peek returns the tag of the next element without reading it, or 0
// when none is left or an error is recorded.
func (r *Reader) Peek() byte {
	if !r.More() {
		return 0
	}
	return r.b[r.off]
}

// Count returns how many well-formed elements are left, without reading
// them.
func (r *Reader) Count() int {
	count := 0
	for off := r.off; off < r.end; count++ {
		_, size, n, err := next(r.b[off:r.end])
		if err != nil {
			break
		}
		off += size + n
	}
	return count
}

// End records ErrTrailing if any element is left unread.
func (r *Reader) End() {
	if r.off < r.end {
		r.Fail(ErrTrailing)
	}
}

// Offset returns how far into its input (a NewReader's b) r has read.
func (r *Reader) Offset() int { return r.off }

// Next reads one element and returns its tag and its body.
func (r *Reader) Next() (tag byte, body []byte, err error) {
	tag = r.Peek()
	body = r.Bytes(tag)
	return tag, body, r.Err()
}

// Bytes reads one element, which must carry tag, and returns its body.
func (r *Reader) Bytes(tag byte) []byte {
	start, end := r.expect(tag)
	return r.b[start:end:end]
}

// expect reads one element, which must carry tag, and returns where its
// body starts and ends in r.b.
func (r *Reader) expect(tag byte) (start, end int) {
	if *r.err != nil {
		return 0, 0
	}
	t, size, n, err := next(r.b[r.off:r.end])
	if err == nil && t != tag {
		err = ErrTag
	}
	if err != nil {
		r.Fail(err)
		return 0, 0
	}
	start = r.off + size
	r.off = start + n
	return start, r.off
}

// Str reads one element, which must carry tag, and returns its body as a
// string (a copy: the caller may keep it).
func (r *Reader) Str(tag byte) string { return string(r.Bytes(tag)) }

// Int reads one element, which must carry tag, as a minimal
// two's-complement integer of at most 8 bytes.
func (r *Reader) Int(tag byte) int64 {
	b := r.Bytes(tag)
	if *r.err == nil && (len(b) == 0 || len(b) > 8 ||
		len(b) > 1 && (b[0] == 0 && b[1] < 0x80 || b[0] == 0xFF && b[1] >= 0x80)) {
		r.Fail(ErrInteger)
	}
	if *r.err != nil {
		return 0
	}
	v := int64(int8(b[0]))
	for _, c := range b[1:] {
		v = v<<8 | int64(c)
	}
	return v
}

// Bool reads one element, which must carry tag, as a boolean.
func (r *Reader) Bool(tag byte) bool {
	b := r.Bytes(tag)
	if *r.err == nil && (len(b) != 1 || b[0] != 0 && b[0] != 0xFF) {
		r.Fail(ErrBoolean)
	}
	return *r.err == nil && b[0] == 0xFF
}

// Enter reads one element, which must carry tag, and returns a reader
// over its body that shares r's error.
func (r *Reader) Enter(tag byte) Reader {
	start, end := r.expect(tag)
	return Reader{b: r.b, off: start, end: end, err: r.err}
}

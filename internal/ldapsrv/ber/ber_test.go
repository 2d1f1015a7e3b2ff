package ber

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func encodeInt(v int64) []byte {
	var b Builder
	b.Int(TagInteger, v)
	return b.Bytes()
}

func readInt(wire []byte) (int64, error) {
	r := NewReader(wire)
	v := r.Int(TagInteger)
	r.End()
	return v, r.Err()
}

func TestIntegerRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1 << 20, -(1 << 20), 1<<62 - 1, -(1 << 62), 1<<63 - 1, -1 << 63} {
		got, err := readInt(encodeInt(v))
		if err != nil || got != v {
			t.Errorf("int %d -> %d, %v", v, got, err)
		}
	}
}

func TestIntegerMinimalEncoding(t *testing.T) {
	// 127 must be 1 content byte, 128 needs 2 (leading zero).
	if w := encodeInt(127); !bytes.Equal(w, []byte{TagInteger, 1, 127}) {
		t.Errorf("127 encoded as %x", w)
	}
	if w := encodeInt(128); !bytes.Equal(w, []byte{TagInteger, 2, 0, 0x80}) {
		t.Errorf("128 encoded as %x", w)
	}
	if w := encodeInt(-1); !bytes.Equal(w, []byte{TagInteger, 1, 0xFF}) {
		t.Errorf("-1 encoded as %x", w)
	}
	if w := encodeInt(-129); !bytes.Equal(w, []byte{TagInteger, 2, 0xFF, 0x7F}) {
		t.Errorf("-129 encoded as %x", w)
	}
	// The reader refuses what the builder never writes: redundant
	// leading bytes, an empty integer and one of more than 8 bytes.
	for _, w := range [][]byte{
		{TagInteger, 2, 0, 0x7F},
		{TagInteger, 2, 0xFF, 0x80},
		{TagInteger, 0},
		{TagInteger, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := readInt(w); !errors.Is(err, ErrInteger) {
			t.Errorf("%x read with %v", w, err)
		}
	}
}

func TestIntegerPropertyRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, err := readInt(encodeInt(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringAndBool(t *testing.T) {
	var b Builder
	b.Str(TagOctetString, "hello \x00 world")
	b.Bool(TagBoolean, true)
	b.Bool(TagBoolean, false)
	r := NewReader(b.Bytes())
	if s := r.Str(TagOctetString); s != "hello \x00 world" {
		t.Errorf("string = %q", s)
	}
	if !r.Bool(TagBoolean) {
		t.Error("true -> false")
	}
	if r.Bool(TagBoolean) {
		t.Error("false -> true")
	}
	if r.End(); r.Err() != nil {
		t.Fatal(r.Err())
	}
	// Only 0x00 and 0xFF are booleans, of one byte.
	for _, w := range [][]byte{{TagBoolean, 1, 1}, {TagBoolean, 0}, {TagBoolean, 2, 0, 0}} {
		r := NewReader(w)
		if r.Bool(TagBoolean); !errors.Is(r.Err(), ErrBoolean) {
			t.Errorf("%x read with %v", w, r.Err())
		}
	}
}

func TestSequenceNesting(t *testing.T) {
	var b Builder
	seq := b.Begin(Sequence)
	b.Int(TagInteger, 3)
	app := b.Begin(ClassApplication | Constructed | 4)
	b.Str(TagOctetString, "cn=alice")
	inner := b.Begin(Sequence)
	b.Str(ClassContext|7, "person")
	b.End(inner)
	b.End(app)
	b.End(seq)

	r := NewReader(b.Bytes())
	s := r.Enter(Sequence)
	if v := s.Int(TagInteger); v != 3 {
		t.Errorf("int = %d", v)
	}
	if tag := s.Peek(); tag&0xC0 != ClassApplication || tag&0x1F != 4 || tag&Constructed == 0 {
		t.Errorf("app tag = %x", tag)
	}
	a := s.Enter(ClassApplication | Constructed | 4)
	if dn := a.Str(TagOctetString); dn != "cn=alice" {
		t.Errorf("dn = %q", dn)
	}
	in := a.Enter(Sequence)
	if v := in.Str(ClassContext | 7); v != "person" {
		t.Errorf("context = %q", v)
	}
	in.End()
	a.End()
	s.End()
	r.End()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestLongLength(t *testing.T) {
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	var b Builder
	b.Str(TagOctetString, string(big))
	wire := b.Bytes()
	// 0x82 0x01 0x2C long form expected.
	if wire[1] != 0x82 || wire[2] != 0x01 || wire[3] != 0x2C {
		t.Errorf("length form = %x", wire[1:4])
	}
	r := NewReader(wire)
	if got := r.Bytes(TagOctetString); !bytes.Equal(got, big) {
		t.Error("payload mismatch")
	}
	// A constructed element's length is backpatched in the same minimal
	// form at every size, shifting its content when it outgrows one byte.
	for _, n := range []int{0, 1, 127, 128, 255, 256, 65535, 65536} {
		var b Builder
		m := b.Begin(Sequence)
		b.Str(TagOctetString, string(make([]byte, n)))
		b.End(m)
		var inner Builder
		inner.Str(TagOctetString, string(make([]byte, n)))
		var want Builder
		want.Str(Sequence, string(inner.Bytes()))
		if !bytes.Equal(b.Bytes(), want.Bytes()) {
			t.Errorf("content %d: backpatched %x, want %x", n, b.Bytes()[:8], want.Bytes()[:8])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		wire []byte
		want error
	}{
		{nil, ErrTruncated},
		{[]byte{0x04}, ErrTruncated},
		{[]byte{0x04, 0x05, 0x01}, ErrTruncated},             // declared 5, got 1
		{[]byte{0x04, 0x80}, ErrIndefinite},                  // indefinite
		{[]byte{0x1F, 0x01, 0x00}, ErrTagNumber},             // multi-byte tag
		{[]byte{0x04, 0x89, 1, 1, 1, 1}, ErrLength},          // huge length
		{[]byte{0x04, 0x85, 1, 1, 1, 1, 1}, ErrLength},       // 5 length bytes
		{[]byte{0x04, 0x84, 1, 1, 1}, ErrTruncated},          // length field cut short
		{[]byte{0x30, 0x02, 0x04, 0x05}, ErrTruncated},       // child truncated inside sequence
		{[]byte{0x04, 0x81, 0x05, 1, 1, 1, 1, 1}, ErrLength}, // long form for a short length
		{[]byte{0x04, 0x82, 0x00, 0x05, 1, 1, 1, 1, 1}, ErrLength},
		{[]byte{0x04, 0x00, 0x04, 0x00}, ErrTrailing}, // two elements where one belongs
		{[]byte{0x02, 0x01, 0x00}, ErrTag},            // integer where a string belongs
	}
	for i, c := range cases {
		r := NewReader(c.wire)
		if r.Peek() == Sequence {
			k := r.Enter(Sequence)
			walk(&k)
		} else {
			r.Str(TagOctetString)
		}
		r.End()
		if !errors.Is(r.Err(), c.want) {
			t.Errorf("case %d (%x): %v, want %v", i, c.wire, r.Err(), c.want)
		}
	}
	// After the first error every helper reads zero.
	r := NewReader([]byte{0x04, 0x80, 0x02, 0x01, 0x05})
	if s, v, ok := r.Str(TagOctetString), r.Int(TagInteger), r.More(); s != "" || v != 0 || ok {
		t.Errorf("after error: %q %d %v", s, v, ok)
	}
}

// node is a test-only BER tree.
type node struct {
	tag  byte
	data []byte
	kids []*node
}

func (n *node) append(b *Builder) {
	if n.tag&Constructed == 0 {
		b.Str(n.tag, string(n.data))
		return
	}
	m := b.Begin(n.tag)
	for _, k := range n.kids {
		k.append(b)
	}
	b.End(m)
}

// readTree reads every element under r into nodes.
func readTree(r *Reader) []*node {
	var out []*node
	for r.More() {
		tag := r.Peek()
		n := &node{tag: tag}
		if tag&Constructed != 0 {
			k := r.Enter(tag)
			n.kids = readTree(&k)
		} else {
			n.data = r.Bytes(tag)
		}
		out = append(out, n)
	}
	return out
}

func walk(r *Reader) { readTree(r) }

func equal(a, b *node) bool {
	if a.tag != b.tag || len(a.kids) != len(b.kids) || !bytes.Equal(a.data, b.data) {
		return false
	}
	for i := range a.kids {
		if !equal(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

// Property: random trees round trip, through the builder and the reader,
// to the same tree and the same bytes.
func TestTreePropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var gen func(depth int) *node
	gen = func(depth int) *node {
		if depth <= 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return &node{tag: TagInteger, data: encodeInt(int64(r.Uint64()))[2:]}
			case 1:
				b := make([]byte, r.Intn(300))
				r.Read(b)
				return &node{tag: TagOctetString, data: b}
			default:
				return &node{tag: TagBoolean, data: []byte{0xFF * byte(r.Intn(2))}}
			}
		}
		p := &node{tag: Sequence}
		if r.Intn(2) == 0 {
			p.tag = ClassContext | Constructed | byte(r.Intn(16))
		}
		for i := 0; i < r.Intn(4); i++ {
			p.kids = append(p.kids, gen(depth-1))
		}
		return p
	}
	for i := 0; i < 500; i++ {
		p := gen(4)
		var b Builder
		p.append(&b)
		wire := b.Bytes()
		rd := NewReader(wire)
		back := readTree(&rd)
		if rd.Err() != nil || len(back) != 1 {
			t.Fatalf("iter %d: %v (%d elements)", i, rd.Err(), len(back))
		}
		if !equal(p, back[0]) {
			t.Fatalf("iter %d: tree mismatch", i)
		}
		var again Builder
		back[0].append(&again)
		if !bytes.Equal(wire, again.Bytes()) {
			t.Fatalf("iter %d: re-encode mismatch", i)
		}
	}
}

// The reader's accessors: a missing child is an error, not a zero value
// that reads as data, and so is a primitive read of a constructed element.
func TestChildAccessor(t *testing.T) {
	var b Builder
	m := b.Begin(Sequence)
	b.Int(TagInteger, 1)
	b.End(m)
	r := NewReader(b.Bytes())
	s := r.Enter(Sequence)
	if v := s.Int(TagInteger); v != 1 || s.Err() != nil {
		t.Errorf("child 0 = %d, %v", v, s.Err())
	}
	if s.Int(TagInteger); !errors.Is(s.Err(), ErrTruncated) {
		t.Errorf("missing child read with %v", s.Err())
	}
	if r.Err() == nil {
		t.Error("an entered reader's error is not shared")
	}
	c := NewReader(b.Bytes())
	if c.Int(TagInteger); !errors.Is(c.Err(), ErrTag) {
		t.Errorf("Int on constructed read with %v", c.Err())
	}
	if fresh := NewReader(b.Bytes()); c.Count() != 0 || fresh.Count() != 1 {
		t.Error("Count")
	}
}

package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// TestDecoderRoundTrip: what the Append helpers write, the Decoder reads
// back field for field, with empty lists and maps coming back nil.
func TestDecoderRoundTrip(t *testing.T) {
	attrs := map[string][]string{"a": {"1", "2"}, "b": nil}
	fields := map[string]string{"k": "v", "e": ""}
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -5)
	b = AppendBool(b, true)
	b = AppendBytes(b, []byte("xy"))
	b = AppendBytes(b, nil)
	b = AppendString(b, "s")
	b = AppendStrings(b, []string{"p", ""})
	b = AppendStrings(b, []string{})
	b = AppendAttrs(b, attrs)
	b = AppendAttrs(b, nil)
	b = AppendStringMap(b, fields)
	b = AppendStringMap(b, map[string]string{})
	d := NewDecoder(b)
	got := []any{d.Uvarint(), d.Varint(), d.Bool(), d.Bytes(), d.Bytes(), d.Str(), d.Strs(), d.Strs(), d.Attrs(), d.Attrs(), d.StringMap(), d.StringMap()}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	want := []any{uint64(300), int64(-5), true, []byte("xy"), []byte(nil), "s", []string{"p", ""}, []string(nil), attrs, map[string][]string(nil), fields, map[string]string(nil)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v\nwant %#v", got, want)
	}
}

// TestPrefixBytes: a field appended in place and prefixed after encodes
// as AppendBytes writes it, across the one- to two-byte length boundary.
func TestPrefixBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i)
		}
		got := PrefixBytes(append([]byte("hdr"), body...), 3)
		if want := AppendBytes([]byte("hdr"), body); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte field: got %x, want %x", n, got, want)
		}
	}
}

// TestDecoderRejects: every failure wraps ErrMalformed and sticks, and
// a count larger than the remaining bytes fails before it sizes
// anything.
func TestDecoderRejects(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string]func(d *Decoder){
		"empty uvarint":   func(d *Decoder) { d.Uvarint() },
		"empty varint":    func(d *Decoder) { d.Varint() },
		"empty byte":      func(d *Decoder) { d.Byte() },
		"huge bytes":      func(d *Decoder) { d.Bytes() },
		"huge strings":    func(d *Decoder) { d.Strs() },
		"huge attrs":      func(d *Decoder) { d.Attrs() },
		"huge string map": func(d *Decoder) { d.StringMap() },
		"huge count":      func(d *Decoder) { d.Count(1) },
		"bool out of 0/1": func(d *Decoder) { d.Bool() },
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for name, read := range cases {
		in := huge
		switch name {
		case "empty uvarint", "empty varint", "empty byte":
			in = nil
		case "bool out of 0/1":
			in = []byte{2}
		}
		d := NewDecoder(in)
		read(&d)
		err := d.Finish()
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if d.Uvarint() != 0 || d.Str() != "" || d.Finish() != err {
			t.Errorf("%s: failure did not stick", name)
		}
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Errorf("rejecting corrupt counts allocated %d bytes", grew)
	}
	d := NewDecoder([]byte{0, 1})
	d.Byte()
	if err := d.Finish(); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing byte: err = %v", err)
	}
}

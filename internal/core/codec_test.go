package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gondi/internal/wire"
)

// closedSet holds a value of every type the codec tags, with the edge
// cases where gob changes a value on the way back: empty slices come
// back nil, nil maps come back empty.
func closedSet() []any {
	return []any{
		nil,
		"", "hello", strings.Repeat("x", 300),
		[]byte(nil), []byte{}, []byte("ab"),
		true, false,
		0, 42, -7, math.MaxInt64, math.MinInt64,
		int64(0), int64(-3), int64(math.MaxInt64),
		0.0, 3.14, -1e300, math.Inf(1),
		&Reference{},
		&Reference{Addrs: []RefAddr{}},
		&Reference{Class: "c", Factory: "f", Addrs: []RefAddr{{Type: "URL", Content: "x://y"}, {}}},
		RefAddr{}, RefAddr{Type: "t", Content: "c"},
		LinkRef{}, LinkRef{Target: "a/b"},
		map[string]string(nil), map[string]string{}, map[string]string{"": "", "k": "v"},
		[]string(nil), []string{}, []string{""}, []string{"a", "b"},
		map[string]any(nil), map[string]any{}, map[string]any{"a": nil, "b": []byte{}, "c": []string{}, "d": 1.5},
		[]any(nil), []any{}, []any{nil},
		[]any{[]byte{}, map[string]string{}, []any{}, 3, "s", int64(4), false, LinkRef{Target: "t"}},
		map[string]any{"x": []any{nil, []string{}, map[string]any{"r": &Reference{Class: "c"}}}},
	}
}

// gobEnvelope is the encoding Marshal wrote for every value before the
// tags existed.
func gobEnvelope(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{V: v}); err != nil {
		t.Fatalf("gob encode %#v: %v", v, err)
	}
	return buf.Bytes()
}

// gobRoundTrip is what a gob round trip makes of v.
func gobRoundTrip(t testing.TB, v any) any {
	t.Helper()
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(gobEnvelope(t, v))).Decode(&env); err != nil {
		t.Fatalf("gob decode %#v: %v", v, err)
	}
	return env.V
}

func sameValue(t *testing.T, what string, want, got any) {
	t.Helper()
	if reflect.TypeOf(got) != reflect.TypeOf(want) || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: got %T %#v, want %T %#v", what, got, got, want, want)
	}
}

func isTag(b byte) bool { return b >= tagNil && b <= tagMax }

// TestUnmarshalLegacyGob: values stored before the tags existed (WALs,
// snapshots, LDAP entries, Jini items, fssp files) still decode, to
// exactly what gob gave.
func TestUnmarshalLegacyGob(t *testing.T) {
	for _, v := range closedSet() {
		old := gobEnvelope(t, v)
		got, err := Unmarshal(old)
		if err != nil {
			t.Fatalf("Unmarshal(legacy %#v): %v", v, err)
		}
		sameValue(t, fmt.Sprintf("legacy %#v", v), gobRoundTrip(t, v), got)
	}
}

// TestTaggedRoundTripMatchesGob: for every type in the closed set the
// tagged round trip gives the dynamic type and value the gob round trip
// gives.
func TestTaggedRoundTripMatchesGob(t *testing.T) {
	for _, v := range closedSet() {
		b, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", v, err)
		}
		if !isTag(b[0]) {
			t.Errorf("Marshal(%#v) fell back to gob (first byte %#x)", v, b[0])
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(%#v)): %v", v, err)
		}
		sameValue(t, fmt.Sprintf("%#v", v), gobRoundTrip(t, v), got)
	}
}

// TestGobFirstByteOutsideTags: a gob stream starts with the length of
// its first message, one byte 0x01–0x7F under 128 bytes, else a negated
// byte count 0xF8–0xFF, so it never starts with a tag.
func TestGobFirstByteOutsideTags(t *testing.T) {
	cases := []struct {
		name string
		v    any
	}{
		{"bare short string", "x"},
		{"bare 127-byte string", strings.Repeat("x", 124)},
		{"bare 200-byte string", strings.Repeat("x", 200)},
		{"bare 70 000-byte string", strings.Repeat("x", 70000)},
		{"bare 17 MB bytes", make([]byte, 17<<20)},
		{"bare int", 7},
		{"envelope of a short string", envelope{V: "x"}},
		{"envelope of a 200-byte string", envelope{V: strings.Repeat("x", 200)}},
		{"envelope of a registered struct", envelope{V: testRecord{Host: strings.Repeat("h", 300)}}},
		{"envelope of nil", envelope{}},
	}
	RegisterType(testRecord{})
	for _, c := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.v); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		first := buf.Bytes()[0]
		if isTag(first) || first == 0 {
			t.Errorf("%s: gob stream starts with %#x", c.name, first)
		}
	}
	// Every first byte gob can write, by message length.
	for _, n := range []uint64{1, 127, 128, 255, 256, 1 << 16, 1 << 24, 1 << 32, 1 << 56} {
		first := gobUintFirstByte(n)
		if isTag(first) {
			t.Errorf("a %d-byte gob message starts with tag byte %#x", n, first)
		}
	}
}

// gobUintFirstByte is the first byte of gob's encoding of n (its
// unsigned integer rule: one byte under 128, else the negated count of
// the big-endian bytes that follow).
func gobUintFirstByte(n uint64) byte {
	if n < 128 {
		return byte(n)
	}
	size := 0
	for v := n; v > 0; v >>= 8 {
		size++
	}
	return byte(-size)
}

// TestRegisteredTypeFallsBackToGob: an application type, and a
// container holding one, travel as a gob envelope as before.
func TestRegisteredTypeFallsBackToGob(t *testing.T) {
	RegisterType(testRecord{})
	for _, v := range []any{
		testRecord{Host: "h", Port: 8080},
		map[string]any{"rec": testRecord{Host: "h"}, "s": "x"},
		[]any{"x", testRecord{Port: 1}},
	} {
		b, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if isTag(b[0]) {
			t.Errorf("Marshal(%#v) is tagged; want the gob envelope", v)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		sameValue(t, fmt.Sprintf("%#v", v), gobRoundTrip(t, v), got)
	}
	rec := testRecord{Host: "h", Port: 8080}
	if b, _ := Marshal(rec); !bytes.Equal(b, gobEnvelope(t, rec)) {
		t.Errorf("Marshal(%#v) differs from the gob envelope", rec)
	}
	if _, err := Marshal((*Reference)(nil)); err == nil {
		t.Error("a nil *Reference marshalled; gob refuses it")
	}
}

// TestMarshalDeterministic: equal maps give equal bytes (gob writes maps
// in iteration order), which replica fingerprint compares rely on.
func TestMarshalDeterministic(t *testing.T) {
	ss := map[string]string{}
	as := map[string]any{}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("key%02d", i)
		ss[k] = fmt.Sprintf("v%d", i)
		as[k] = []any{i, k, map[string]string{k: k, "z" + k: k}}
	}
	for _, v := range []any{ss, as} {
		first, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if b, _ := Marshal(v); !bytes.Equal(b, first) {
				t.Fatalf("%T: marshal %d differs from the first", v, i)
			}
		}
	}
}

// TestUnmarshalRejectsMalformed: a tagged value parses exactly or fails
// with wire.ErrMalformed, a corrupt count and a too-deep value included.
func TestUnmarshalRejectsMalformed(t *testing.T) {
	deep := bytes.Repeat([]byte{tagList, 1}, maxDepth+2)
	for _, b := range [][]byte{
		{tagList + 1},
		{tagMax},
		{tagString, 5, 'a'},
		{tagString, 0, 0},
		{tagBool, 2},
		{tagList, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		{tagMap, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0},
		{tagReference, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		append(deep, tagNil),
	} {
		if v, err := Unmarshal(b); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("Unmarshal(% x) = %#v, %v; want wire.ErrMalformed", b, v, err)
		}
	}
	nested := any("leaf")
	for i := 0; i < maxDepth+1; i++ {
		nested = []any{nested}
	}
	b, err := Marshal(nested)
	if err != nil || isTag(b[0]) {
		t.Fatalf("a value nested past maxDepth: first byte %#x, %v; want the gob envelope", b[0], err)
	}
	if got, err := Unmarshal(b); err != nil || !reflect.DeepEqual(got, nested) {
		t.Errorf("deep value round trip: %v", err)
	}
}

// TestValueCodecAllocs is an allocations gate cited by check.sh: a
// bound string, the common value, costs at most its copy and its
// interface box to decode and one buffer to encode.
func TestValueCodecAllocs(t *testing.T) {
	var v any = strings.Repeat("v", 220)
	b, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(b); err != nil {
			t.Fatal(err)
		}
	})
	enc := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(v); err != nil {
			t.Fatal(err)
		}
	})
	if dec > 2 || enc > 1 {
		t.Fatalf("string: Unmarshal %.1f allocs (want <= 2), Marshal %.1f (want <= 1)", dec, enc)
	}
	t.Logf("string: Unmarshal %.1f allocs, Marshal %.1f", dec, enc)
}

// FuzzValue: Unmarshal never panics, and whatever it accepts marshals
// and decodes to an equal value.
func FuzzValue(f *testing.F) {
	RegisterType(testRecord{})
	for _, v := range closedSet() {
		b, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(gobEnvelope(f, v))
	}
	f.Add(gobEnvelope(f, testRecord{Host: "h", Port: 1}))
	f.Add([]byte{})
	f.Add([]byte{tagList, 2, tagMap, 1, 0, tagNil, tagFloat64, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := Unmarshal(b)
		if err != nil {
			return
		}
		again, err := Marshal(v)
		if err != nil {
			t.Fatalf("decoded %#v does not marshal: %v", v, err)
		}
		back, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", v, err)
		}
		// DeepEqual is false for a NaN; equal encodings stand in there.
		if !reflect.DeepEqual(back, v) {
			if b2, _ := Marshal(back); !bytes.Equal(b2, again) {
				t.Fatalf("round trip changed the value: %#v -> %#v", v, back)
			}
		}
	})
}

package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"gondi/internal/wire"
)

// The codec provides the "any serializable object" minimum conformance
// level the JNDI specification recommends: any value of the closed set
// below, or any gob-encodable value whose concrete type has been
// registered, can be bound into any provider and retrieved in its
// original form. Providers marshal values with Marshal before putting
// them on the wire or on disk.
//
// The closed set the library binds is written as one tag byte and a
// wire encoding, and decodes to the same dynamic type and value a gob
// round trip gives (an empty slice comes back nil, a nil map empty):
//
//	0x80 nil
//	0x81 string              string
//	0x82 []byte              bytes
//	0x83 bool                bool
//	0x84 int                 varint
//	0x85 int64               varint
//	0x86 float64             uvarint of the byte-reversed IEEE 754 bits
//	0x87 *Reference          Class, Factory string; count, then Type, Content per address
//	0x88 RefAddr             Type, Content string
//	0x89 LinkRef             Target string
//	0x8A map[string]string   count, then key, value string per entry, keys sorted
//	0x8B []string            strings
//	0x8C map[string]any      count, then key string and a tagged value per entry, keys sorted
//	0x8D []any               count, then a tagged value each
//
// Everything else — RegisterType types, and containers holding one — is
// an untagged gob envelope, exactly as before the tags existed. A gob
// stream's first byte is its message length: 0x01–0x7F, or 0xF8–0xFF
// for a multi-byte count. The tags live in between, so Unmarshal tells
// the two apart by the first byte and stored values written by either
// still decode.

const (
	tagNil byte = 0x80 + iota
	tagString
	tagBytes
	tagBool
	tagInt
	tagInt64
	tagFloat64
	tagReference
	tagRefAddr
	tagLinkRef
	tagStringMap
	tagStrings
	tagMap
	tagList

	// tagMax ends the byte range reserved for tags; no gob stream starts
	// in 0x80–0xF7.
	tagMax byte = 0xF7
)

// maxDepth bounds the nesting of tagged maps and lists. Deeper values
// go to gob on Marshal, so everything Marshal tags decodes, and a
// hostile input cannot recurse the decoder without bound.
const maxDepth = 64

var (
	errTooDeep    = fmt.Errorf("%w: values nested deeper than %d", wire.ErrMalformed, maxDepth)
	errUnknownTag = fmt.Errorf("%w: unknown value tag", wire.ErrMalformed)
)

func init() {
	// Types the library itself binds and retrieves, for values written
	// before the tags existed and for containers that fall back to gob.
	gob.Register(&Reference{})
	gob.Register(RefAddr{})
	gob.Register(LinkRef{})
	gob.Register(map[string]string{})
	gob.Register([]string{})
	gob.Register(map[string]any{})
	gob.Register([]any{})
}

// RegisterType registers a concrete type for transport through the codec,
// like gob.Register. Applications call this for their own bound types.
func RegisterType(v any) {
	gob.Register(v)
}

// envelope wraps an arbitrary value so gob records its concrete type.
type envelope struct {
	V any
}

// Marshal encodes v. Equal values of the closed set give equal bytes.
func Marshal(v any) ([]byte, error) {
	if b, ok := appendValue(make([]byte, 0, sizeHint(v)), v, 0); ok {
		return b, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{V: v}); err != nil {
		return nil, fmt.Errorf("core: marshal %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes bytes produced by Marshal. The result shares no
// memory with b.
func Unmarshal(b []byte) (any, error) {
	if len(b) > 0 && b[0] >= tagNil && b[0] <= tagMax {
		d := wire.NewDecoder(b)
		v := decodeValue(&d, 0)
		if err := d.Finish(); err != nil {
			return nil, fmt.Errorf("core: unmarshal: %w", err)
		}
		return v, nil
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: unmarshal: %w", err)
	}
	return env.V, nil
}

// sizeHint is Marshal's first buffer size: exact room for a string or
// []byte, so the common bound value costs one allocation.
func sizeHint(v any) int {
	switch v := v.(type) {
	case string:
		return 1 + binary.MaxVarintLen64 + len(v)
	case []byte:
		return 1 + binary.MaxVarintLen64 + len(v)
	}
	return 64
}

// appendValue appends v's tagged encoding to dst. It reports false when
// v, or anything v holds, is outside the closed set.
func appendValue(dst []byte, v any, depth int) ([]byte, bool) {
	if depth > maxDepth {
		return dst, false
	}
	switch v := v.(type) {
	case nil:
		return append(dst, tagNil), true
	case string:
		return wire.AppendString(append(dst, tagString), v), true
	case []byte:
		return wire.AppendBytes(append(dst, tagBytes), v), true
	case bool:
		return wire.AppendBool(append(dst, tagBool), v), true
	case int:
		return binary.AppendVarint(append(dst, tagInt), int64(v)), true
	case int64:
		return binary.AppendVarint(append(dst, tagInt64), v), true
	case float64:
		return binary.AppendUvarint(append(dst, tagFloat64), bits.ReverseBytes64(math.Float64bits(v))), true
	case *Reference:
		if v == nil {
			return dst, false // gob refuses a nil pointer; so does Marshal
		}
		dst = wire.AppendString(append(dst, tagReference), v.Class)
		dst = wire.AppendString(dst, v.Factory)
		dst = binary.AppendUvarint(dst, uint64(len(v.Addrs)))
		for _, a := range v.Addrs {
			dst = wire.AppendString(wire.AppendString(dst, a.Type), a.Content)
		}
		return dst, true
	case RefAddr:
		return wire.AppendString(wire.AppendString(append(dst, tagRefAddr), v.Type), v.Content), true
	case LinkRef:
		return wire.AppendString(append(dst, tagLinkRef), v.Target), true
	case map[string]string:
		dst = binary.AppendUvarint(append(dst, tagStringMap), uint64(len(v)))
		for _, k := range sortedKeys(v) {
			dst = wire.AppendString(wire.AppendString(dst, k), v[k])
		}
		return dst, true
	case []string:
		return wire.AppendStrings(append(dst, tagStrings), v), true
	case map[string]any:
		dst = binary.AppendUvarint(append(dst, tagMap), uint64(len(v)))
		for _, k := range sortedKeys(v) {
			var ok bool
			if dst, ok = appendValue(wire.AppendString(dst, k), v[k], depth+1); !ok {
				return dst, false
			}
		}
		return dst, true
	case []any:
		dst = binary.AppendUvarint(append(dst, tagList), uint64(len(v)))
		for _, e := range v {
			var ok bool
			if dst, ok = appendValue(dst, e, depth+1); !ok {
				return dst, false
			}
		}
		return dst, true
	}
	return dst, false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// decodeValue reads one tagged value; failures stick in d.
func decodeValue(d *wire.Decoder, depth int) any {
	if depth > maxDepth {
		d.Fail(errTooDeep)
		return nil
	}
	switch d.Byte() {
	case tagNil:
		return nil
	case tagString:
		return d.Str()
	case tagBytes:
		return bytes.Clone(d.Bytes()) // nil for an empty field, as gob gives
	case tagBool:
		return d.Bool()
	case tagInt:
		return int(d.Varint())
	case tagInt64:
		return d.Varint()
	case tagFloat64:
		return math.Float64frombits(bits.ReverseBytes64(d.Uvarint()))
	case tagReference:
		ref := &Reference{Class: d.Str(), Factory: d.Str()}
		if n := d.Count(2); n > 0 {
			ref.Addrs = make([]RefAddr, n)
			for i := range ref.Addrs {
				ref.Addrs[i] = RefAddr{Type: d.Str(), Content: d.Str()}
			}
		}
		return ref
	case tagRefAddr:
		return RefAddr{Type: d.Str(), Content: d.Str()}
	case tagLinkRef:
		return LinkRef{Target: d.Str()}
	case tagStringMap:
		n := d.Count(2)
		m := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := d.Str()
			m[k] = d.Str()
		}
		return m
	case tagStrings:
		return d.Strs()
	case tagMap:
		n := d.Count(2)
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := d.Str()
			m[k] = decodeValue(d, depth+1)
		}
		return m
	case tagList:
		n := d.Count(1)
		if n == 0 {
			return []any(nil)
		}
		l := make([]any, n)
		for i := range l {
			l[i] = decodeValue(d, depth+1)
		}
		return l
	default:
		d.Fail(errUnknownTag)
		return nil
	}
}

// ClassOf returns the class string recorded in NameClassPair/Binding
// results for an object.
func ClassOf(obj any) string {
	if obj == nil {
		return "<nil>"
	}
	if _, ok := obj.(Context); ok {
		return ContextReferenceClass
	}
	return fmt.Sprintf("%T", obj)
}

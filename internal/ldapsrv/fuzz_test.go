package ldapsrv

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"gondi/internal/filter"
	"gondi/internal/ldapsrv/ber"
)

// Random bytes must never panic the BER reader, walked as a tree or read
// as an LDAP message.
func TestBERDecodeRandomNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, r.Intn(96))
		r.Read(buf)
		br := ber.NewReader(buf)
		walk(&br)
		_, _ = reencode(buf)
	}
}

// walk reads every element under r, entering each constructed one.
func walk(r *ber.Reader) {
	for r.More() {
		if tag := r.Peek(); tag&ber.Constructed != 0 {
			k := r.Enter(tag)
			walk(&k)
		} else {
			r.Bytes(tag)
		}
	}
}

// reencode reads msg with the reader of its protocol op (the server's for
// a request, the client's for a response) and appends what it read back
// into a message.
func reencode(msg []byte) ([]byte, error) {
	id, op, err := splitMessage(msg)
	if err != nil {
		return nil, err
	}
	var appendOp func(*ber.Builder)
	switch num := opNum(op); num {
	case AppBindRequest:
		dn, password, e := readBindRequest(op)
		err, appendOp = e, func(b *ber.Builder) { appendBindRequest(b, dn, password) }
	case AppUnbindRequest:
		// The server closes the connection without reading the op.
		if !bytes.Equal(op, []byte{ber.ClassApplication | AppUnbindRequest, 0}) {
			err = errors.New("unbind with content")
		}
		appendOp = func(b *ber.Builder) { b.Str(ber.ClassApplication|AppUnbindRequest, "") }
	case AppSearchRequest:
		q, e := readSearchRequest(op)
		err, appendOp = e, func(b *ber.Builder) { appendSearchRequest(b, &q) }
	case AppAddRequest:
		dn, attrs, e := readAddRequest(op)
		err, appendOp = e, func(b *ber.Builder) { appendAddRequest(b, dn, attrs) }
	case AppDelRequest:
		dn, e := readDelRequest(op)
		err, appendOp = e, func(b *ber.Builder) { appendDelRequest(b, dn) }
	case AppModifyRequest:
		dn, changes, e := readModifyRequest(op)
		err, appendOp = e, func(b *ber.Builder) { appendModifyRequest(b, dn, changes) }
	case AppModifyDNRequest:
		dn, newRDN, del, e := readModifyDNRequest(op)
		err, appendOp = e, func(b *ber.Builder) { appendModifyDNRequest(b, dn, newRDN, del) }
	case AppCompareRequest:
		dn, attr, value, e := readCompareRequest(op)
		err, appendOp = e, func(b *ber.Builder) { appendCompareRequest(b, dn, attr, value) }
	case AppSearchEntry:
		e, rerr := readEntry(op)
		err, appendOp = rerr, func(b *ber.Builder) { appendEntry(b, &e) }
	case AppBindResponse, AppSearchDone, AppModifyResponse, AppAddResponse,
		AppDelResponse, AppModifyDNResponse, AppCompareResponse:
		r, e := readResult(op)
		err, appendOp = e, func(b *ber.Builder) { appendResult(b, num, r) }
	default:
		err = fmt.Errorf("unsupported op %d", num)
	}
	if err != nil {
		return nil, err
	}
	return encodeMessage(id, appendOp), nil
}

// FuzzLDAPMessage: no input panics the message reader, and every message
// it accepts re-encodes to exactly its own bytes.
func FuzzLDAPMessage(f *testing.F) {
	for _, g := range goldenMessages {
		b, _ := hex.DecodeString(g.hex)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		back, err := reencode(msg)
		if err == nil && !bytes.Equal(back, msg) {
			t.Fatalf("accepted %x, re-encoded %x", msg, back)
		}
		fr := frameReader{r: bytes.NewReader(msg)}
		_, _ = fr.read()
	})
}

// Random DN strings must never panic the parser.
func TestParseDNRandomNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const alphabet = `abcXYZ=,+\;"<>#0 1f`
	for i := 0; i < 5000; i++ {
		n := r.Intn(40)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		_, _ = ParseDN(string(b))
	}
}

// A raw TCP client throwing garbage at the server must not wedge or crash
// it; a well-formed client must still be served afterwards.
func TestServerSurvivesGarbageConnections(t *testing.T) {
	ctx := context.Background()
	s, err := NewServer("127.0.0.1:0", ServerConfig{BaseDN: "dc=x"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1+r.Intn(64))
		r.Read(buf)
		_, _ = conn.Write(buf)
		conn.Close()
	}
	// Mutated-but-plausible PDUs.
	valid := encodeMessage(1, func(b *ber.Builder) { appendBindRequest(b, "", "") })
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), valid...)
		mut[r.Intn(len(mut))] = byte(r.Intn(256))
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = conn.Write(mut)
		conn.Close()
	}
	// A real client still works.
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Bind(ctx, "", ""); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	if err := c.Add(ctx, "cn=alive,dc=x", nil); err != nil {
		t.Fatal(err)
	}
}

// Filter BER reading of arbitrary bytes must never panic.
func TestDecodeFilterRandomNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		buf := make([]byte, r.Intn(64))
		r.Read(buf)
		br := ber.NewReader(buf)
		_ = readFilter(&br, 1)
	}
	// And of structurally valid but semantically odd BER.
	var b ber.Builder
	m := b.Begin(filterSet | filterTag(filter.OpSubstring)) // substrings missing pieces
	b.Str(ber.TagOctetString, "attr")
	b.End(m)
	odd := ber.NewReader(b.Bytes())
	if readFilter(&odd, 1); odd.Err() == nil {
		t.Error("odd substrings accepted")
	}
}

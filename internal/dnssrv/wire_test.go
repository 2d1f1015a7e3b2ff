package dnssrv

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenDNS pins the exact wire bytes of the messages the client and the
// server build: the codec may be rewritten, the bytes may not change.
var goldenDNS = []struct {
	name string
	msg  *Message
	hex  string
}{
	{"query", &Message{
		Header:    Header{ID: 0x1234, RD: true},
		Questions: []Question{{Name: "mathcs.global.", Type: TypeANY, Class: ClassIN}},
	}, "123401000001000000000000066d617468637306676c6f62616c0000ff0001"},
	{"nxdomain with soa", &Message{
		Header:    Header{ID: 0xbeef, QR: true, AA: true, RD: true, Rcode: RcodeNXDomain},
		Questions: []Question{{Name: "ghost.svc.global.", Type: TypeANY, Class: ClassIN}},
		Authority: []RR{{Name: "global.", Type: TypeSOA, Class: ClassIN, TTL: 3600,
			SOA: &SOAData{MName: "ns1.global.", RName: "admin.global.", Serial: 1002, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 60}}},
	}, "beef850300010000000100000567686f73740373766306676c6f62616c0000ff0001c0160006000100000e100022036e7331c0160561646d696ec016000003ea00000e1000000258000151800000003c"},
	{"txt answer", &Message{
		Header:    Header{ID: 7, QR: true, AA: true, RD: true},
		Questions: []Question{{Name: "mathcs.global.", Type: TypeANY, Class: ClassIN}},
		Answers: []RR{{Name: "mathcs.global.", Type: TypeTXT, Class: ClassIN, TTL: 60,
			Txt: []string{"hdns://127.0.0.1:7101", "dept=mathcs"}}},
	}, "000785000001000100000000066d617468637306676c6f62616c0000ff0001c00c001000010000003c00221568646e733a2f2f3132372e302e302e313a373130310b646570743d6d6174686373"},
	{"srv with glue", &Message{
		Header:    Header{ID: 42, QR: true, AA: true},
		Questions: []Question{{Name: "_hdns._tcp.global.", Type: TypeSRV, Class: ClassIN}},
		Answers: []RR{{Name: "_hdns._tcp.global.", Type: TypeSRV, Class: ClassIN, TTL: 60,
			Pref: 1, Weight: 5, Port: 7101, Target: "node1.global."}},
		Additional: []RR{
			{Name: "node1.global.", Type: TypeA, Class: ClassIN, TTL: 60, A: netip.MustParseAddr("127.0.0.1")},
			{Name: "node1.global.", Type: TypeAAAA, Class: ClassIN, TTL: 60, A: netip.MustParseAddr("fd00::1")},
		},
	}, "002a84000001000100000002055f68646e73045f74637006676c6f62616c0000210001c00c002100010000003c0014000100051bbd056e6f64653106676c6f62616c00056e6f646531c017000100010000003c00047f000001c043001c00010000003c0010fd000000000000000000000000000001"},
	{"upper-case name", &Message{
		Header:    Header{ID: 9, RD: true},
		Questions: []Question{{Name: "MathCS.Emory.GLOBAL", Type: TypeA, Class: ClassIN}},
	}, "000901000001000000000000066d617468637305656d6f727906676c6f62616c0000010001"},
	{"busy refused", &Message{
		Header:    Header{ID: 0x0102, QR: true, RD: true, Rcode: RcodeRefused},
		Questions: []Question{{Name: "k1.svc.global.", Type: TypeANY, Class: ClassIN}},
		Additional: []RR{{Name: busyName, Type: TypeTXT, Class: ClassIN,
			Txt: []string{"retry-after-ms=250"}}},
	}, "010281050001000000000001026b310373766306676c6f62616c0000ff00010b72657472792d616674657205676f6e646900001000010000000000131272657472792d61667465722d6d733d323530"},
}

// TestDNSWireGolden: every golden message encodes to its pinned bytes,
// decodes with its names canonical, and re-encodes unchanged. Labels
// that arrive upper-case decode lower-cased, and the busy answer the
// server sheds with is byte for byte the pinned one.
func TestDNSWireGolden(t *testing.T) {
	for _, g := range goldenDNS {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got, err := g.msg.Encode()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: encoded (%v)\n got %x\nwant %x", g.name, err, got, want)
			continue
		}
		back, err := DecodeMessage(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if again, err := back.Encode(); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: re-encoded to %x (%v)", g.name, again, err)
		}
		for _, q := range back.Questions {
			if q.Name != CanonicalName(q.Name) {
				t.Errorf("%s: decoded question %q is not canonical", g.name, q.Name)
			}
		}
	}

	query, _ := hex.DecodeString(goldenDNS[0].hex)
	upper := append([]byte(nil), query...)
	copy(upper[12:len(upper)-4], bytes.ToUpper(upper[12:len(upper)-4]))
	if bytes.Equal(upper, query) {
		t.Fatal("upper-casing the question changed nothing")
	}
	m, err := DecodeMessage(upper)
	if err != nil || len(m.Questions) != 1 || m.Questions[0].Name != "mathcs.global." {
		t.Errorf("upper-case question decoded to %+v, %v; want mathcs.global.", m, err)
	}

	busy := goldenDNS[len(goldenDNS)-1]
	req := &Message{Header: Header{ID: busy.msg.Header.ID, RD: true}, Questions: busy.msg.Questions}
	if got := hex.EncodeToString(busyResponse(req, 250*time.Millisecond)); got != busy.hex {
		t.Errorf("busyResponse:\n got %s\nwant %s", got, busy.hex)
	}
}

// wireName is the name the encoder writes for s: CanonicalName's form,
// where a label that ends in a dot (legal on the wire, as any byte is)
// leaves a doubled final dot that the encoder writes as one.
func wireName(s string) string {
	s = CanonicalName(s)
	if strings.HasSuffix(s, "..") {
		s = s[:len(s)-1]
	}
	return s
}

// wireNames rewrites every name in m into the form the encoder writes.
func wireNames(m *Message) {
	for i := range m.Questions {
		m.Questions[i].Name = wireName(m.Questions[i].Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			rr := &sec[i]
			rr.Name = wireName(rr.Name)
			switch rr.Type {
			case TypeCNAME, TypeNS, TypePTR, TypeMX, TypeSRV:
				rr.Target = wireName(rr.Target)
			case TypeSOA:
				rr.SOA.MName, rr.SOA.RName = wireName(rr.SOA.MName), wireName(rr.SOA.RName)
			}
		}
	}
}

// FuzzDNSMessage: no input panics the decoder, and every message it
// accepts and the encoder can write re-encodes to bytes that decode to
// the same message, names in the form the encoder writes, and encode
// again to themselves.
func FuzzDNSMessage(f *testing.F) {
	for _, g := range goldenDNS {
		b, _ := hex.DecodeString(g.hex)
		f.Add(b)
	}
	// A question whose one label is "00\x9f\x9f\x9f.": invalid UTF-8
	// and a dot inside a label.
	f.Add([]byte("0000\x00\x01\x00\x00\x00\x00\x00\x00\x0600\x9f\x9f\x9f.\x000000"))
	f.Fuzz(func(t *testing.T, wire []byte) {
		m, err := DecodeMessage(wire)
		if err != nil {
			return
		}
		w2, err := m.Encode()
		if err != nil {
			return // an RR type or a name the encoder does not write
		}
		m2, err := DecodeMessage(w2)
		if err != nil {
			t.Fatalf("decoded %x, re-encoded %x, which does not decode: %v", wire, w2, err)
		}
		wireNames(m)
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decoded %x to\n%+v\nre-encoded it to %x, which decodes to\n%+v", wire, m, w2, m2)
		}
		if w3, err := m2.Encode(); err != nil || !bytes.Equal(w3, w2) {
			t.Fatalf("re-encoding %x gave %x (%v)", w2, w3, err)
		}
	})
}

// TestDecodeMessageAllocs gates the decoder: a query decodes into one
// allocation for the message and its question and one for the name.
// The TXT answer adds its record array, its string slice and its two
// strings; its owner name points at the question's and reuses that
// string.
func TestDecodeMessageAllocs(t *testing.T) {
	for _, g := range goldenDNS {
		max, ok := map[string]float64{"query": 2, "txt answer": 6}[g.name]
		if !ok {
			continue
		}
		wire, _ := hex.DecodeString(g.hex)
		n := testing.AllocsPerRun(200, func() {
			if _, err := DecodeMessage(wire); err != nil {
				t.Fatal(err)
			}
		})
		if n > max {
			t.Errorf("decoding %s costs %.0f allocations, want <= %.0f", g.name, n, max)
		}
	}
}

// TestDNSExchangeAllocs gates a Query round trip over loopback UDP,
// client and server together: the query's frame, the server's decode,
// question name, answer copy and encoded answer, its goroutine, and
// the client's decode (message, name, record array, TXT strings). The
// reply channel, the attempt timer and the server's copy of the query
// are pooled.
func TestDNSExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	z := NewZone("global")
	z.Add(RR{Name: "k1.svc.global", Type: TypeTXT, Txt: []string{"v1"}})
	s.AddZone(z)
	r := NewResolver(s.Addr())
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		if rrs, err := r.Query(ctx, "k1.svc.global.", TypeANY); err != nil || len(rrs) != 1 {
			t.Fatalf("query: %v %v", rrs, err)
		}
	})
	if n > 11 {
		t.Errorf("loopback Query costs %.0f allocations, want <= 11", n)
	}
}

// Past the names the builder scans in place, compression goes on
// through its map: 100 owners under one suffix each write one label
// and a pointer, and decode back to themselves.
func TestCompressionPastScannedNames(t *testing.T) {
	m := &Message{Header: Header{ID: 1, QR: true}}
	for i := 0; i < 100; i++ {
		m.Answers = append(m.Answers, RR{Name: fmt.Sprintf("h%02d.svc.global.", i), Type: TypeA,
			Class: ClassIN, TTL: 1, A: netip.MustParseAddr("10.0.0.1")})
	}
	wire := mustEncode(t, m)
	// The first owner in full, each later one as its label and a pointer.
	want := 12 + len("h00.svc.global.") + 1 + 14 + 99*(4+2+14)
	if len(wire) != want {
		t.Errorf("encoded %d bytes, want %d", len(wire), want)
	}
	back, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range back.Answers {
		if rr.Name != m.Answers[i].Name {
			t.Fatalf("answer %d decoded as %q, want %q", i, rr.Name, m.Answers[i].Name)
		}
	}
}

package dnssrv

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"gondi/internal/admission"
)

func TestCanonicalName(t *testing.T) {
	tests := map[string]string{
		"":               ".",
		".":              ".",
		"Example.COM":    "example.com.",
		"example.com.":   "example.com.",
		" a.b ":          "a.b.",
		"MathCS.Emory.x": "mathcs.emory.x.",
	}
	for in, want := range tests {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{ID: 0x1234, QR: true, AA: true, RD: true, RA: true, Rcode: RcodeNoError},
		Questions: []Question{
			{Name: "www.example.com.", Type: TypeA, Class: ClassIN},
		},
		Answers: []RR{
			{Name: "www.example.com.", Type: TypeCNAME, Class: ClassIN, TTL: 300, Target: "host.example.com."},
			{Name: "host.example.com.", Type: TypeA, Class: ClassIN, TTL: 300, A: netip.MustParseAddr("10.1.2.3")},
			{Name: "host.example.com.", Type: TypeAAAA, Class: ClassIN, TTL: 300, A: netip.MustParseAddr("fd00::1")},
			{Name: "example.com.", Type: TypeTXT, Class: ClassIN, TTL: 60, Txt: []string{"v=1", "hello world"}},
			{Name: "_hdns._tcp.example.com.", Type: TypeSRV, Class: ClassIN, TTL: 60, Pref: 10, Weight: 5, Port: 7777, Target: "node1.example.com."},
			{Name: "example.com.", Type: TypeMX, Class: ClassIN, TTL: 60, Pref: 10, Target: "mail.example.com."},
			{Name: "example.com.", Type: TypeNS, Class: ClassIN, TTL: 60, Target: "ns1.example.com."},
		},
		Authority: []RR{
			{Name: "example.com.", Type: TypeSOA, Class: ClassIN, TTL: 3600,
				SOA: &SOAData{MName: "ns1.example.com.", RName: "admin.example.com.", Serial: 7, Refresh: 1, Retry: 2, Expire: 3, Minimum: 4}},
		},
	}
	wire := mustEncode(t, m)
	back, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.ID != 0x1234 || !back.Header.QR || !back.Header.AA {
		t.Errorf("header = %+v", back.Header)
	}
	if len(back.Answers) != 7 {
		t.Fatalf("answers = %d", len(back.Answers))
	}
	if back.Answers[0].Target != "host.example.com." {
		t.Errorf("cname = %q", back.Answers[0].Target)
	}
	if back.Answers[1].A.String() != "10.1.2.3" {
		t.Errorf("A = %v", back.Answers[1].A)
	}
	if !reflect.DeepEqual(back.Answers[3].Txt, []string{"v=1", "hello world"}) {
		t.Errorf("TXT = %v", back.Answers[3].Txt)
	}
	srv := back.Answers[4]
	if srv.Pref != 10 || srv.Weight != 5 || srv.Port != 7777 || srv.Target != "node1.example.com." {
		t.Errorf("SRV = %+v", srv)
	}
	soa := back.Authority[0].SOA
	if soa == nil || soa.Serial != 7 || soa.MName != "ns1.example.com." {
		t.Errorf("SOA = %+v", soa)
	}
}

func TestNameCompression(t *testing.T) {
	// Repeating the same suffix must produce a smaller message than the
	// naive encoding, proving pointers are emitted.
	m := &Message{Header: Header{ID: 1}}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "host.sub.department.university.example.com.", Type: TypeA,
			Class: ClassIN, TTL: 1, A: netip.MustParseAddr("10.0.0.1"),
		})
	}
	wire := mustEncode(t, m)
	naive := 12 + 10*(len("host.sub.department.university.example.com.")+1+10+4)
	if len(wire) >= naive {
		t.Errorf("compressed size %d >= naive %d", len(wire), naive)
	}
	back, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range back.Answers {
		if rr.Name != "host.sub.department.university.example.com." {
			t.Errorf("decompressed name = %q", rr.Name)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		make([]byte, 11),
		// Header claiming one question but no body.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		// Pointer loop: name points to itself.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1},
	}
	for i, c := range cases {
		if _, err := DecodeMessage(c); err == nil {
			t.Errorf("case %d: decode succeeded", i)
		}
	}
}

// Property: random well-formed messages round trip.
func TestMessageRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	labels := []string{"a", "bb", "ccc", "node", "example", "com", "emory", "mathcs"}
	randName := func() string {
		n := r.Intn(4) + 1
		parts := make([]string, n)
		for i := range parts {
			parts[i] = labels[r.Intn(len(labels))]
		}
		return strings.Join(parts, ".") + "."
	}
	for iter := 0; iter < 300; iter++ {
		m := &Message{Header: Header{ID: uint16(r.Intn(65536)), QR: r.Intn(2) == 0, RD: true}}
		m.Questions = append(m.Questions, Question{Name: randName(), Type: TypeA, Class: ClassIN})
		for i := 0; i < r.Intn(6); i++ {
			switch r.Intn(4) {
			case 0:
				m.Answers = append(m.Answers, RR{Name: randName(), Type: TypeA, Class: ClassIN, TTL: uint32(r.Intn(1000)),
					A: netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})})
			case 1:
				m.Answers = append(m.Answers, RR{Name: randName(), Type: TypeCNAME, Class: ClassIN, TTL: 1, Target: randName()})
			case 2:
				m.Answers = append(m.Answers, RR{Name: randName(), Type: TypeTXT, Class: ClassIN, TTL: 1,
					Txt: []string{labels[r.Intn(len(labels))]}})
			default:
				m.Answers = append(m.Answers, RR{Name: randName(), Type: TypeSRV, Class: ClassIN, TTL: 1,
					Pref: uint16(r.Intn(100)), Weight: uint16(r.Intn(100)), Port: uint16(r.Intn(65536)), Target: randName()})
			}
		}
		wire := mustEncode(t, m)
		back, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(back.Answers) != len(m.Answers) || len(back.Questions) != 1 {
			t.Fatalf("iter %d: section sizes differ", iter)
		}
		for i := range m.Answers {
			want, got := m.Answers[i], back.Answers[i]
			if want.Name != got.Name || want.Type != got.Type || want.TTL != got.TTL {
				t.Fatalf("iter %d rr %d: %+v != %+v", iter, i, want, got)
			}
			switch want.Type {
			case TypeA:
				if want.A != got.A {
					t.Fatalf("iter %d rr %d: A mismatch", iter, i)
				}
			case TypeCNAME, TypeSRV:
				if want.Target != got.Target {
					t.Fatalf("iter %d rr %d: target mismatch", iter, i)
				}
			case TypeTXT:
				if !reflect.DeepEqual(want.Txt, got.Txt) {
					t.Fatalf("iter %d rr %d: txt mismatch", iter, i)
				}
			}
		}
	}
}

func TestZoneLookup(t *testing.T) {
	z := NewZone("emory.global")
	z.Add(RR{Name: "mathcs.emory.global", Type: TypeA, A: netip.MustParseAddr("10.0.0.1")})
	z.Add(RR{Name: "mathcs.emory.global", Type: TypeTXT, Txt: []string{"dept"}})
	z.Add(RR{Name: "www.emory.global", Type: TypeCNAME, Target: "mathcs.emory.global"})
	z.Add(RR{Name: "deep.sub.emory.global", Type: TypeTXT, Txt: []string{"x"}})

	// Direct hit.
	rrs, res := z.Lookup("mathcs.emory.global", TypeA)
	if res != lookupHit || len(rrs) != 1 {
		t.Fatalf("direct: %v %v", rrs, res)
	}
	// CNAME chase.
	rrs, res = z.Lookup("www.emory.global", TypeA)
	if res != lookupHit || len(rrs) != 2 || rrs[0].Type != TypeCNAME || rrs[1].Type != TypeA {
		t.Fatalf("cname chase: %v %v", rrs, res)
	}
	// NODATA: name exists, type missing.
	_, res = z.Lookup("mathcs.emory.global", TypeMX)
	if res != lookupNoData {
		t.Errorf("want NODATA, got %v", res)
	}
	// Empty non-terminal is NODATA, not NXDOMAIN.
	_, res = z.Lookup("sub.emory.global", TypeA)
	if res != lookupNoData {
		t.Errorf("empty non-terminal: want NODATA, got %v", res)
	}
	// NXDOMAIN.
	_, res = z.Lookup("ghost.emory.global", TypeA)
	if res != lookupNXDomain {
		t.Errorf("want NXDOMAIN, got %v", res)
	}
	// ANY.
	rrs, res = z.Lookup("mathcs.emory.global", TypeANY)
	if res != lookupHit || len(rrs) != 2 {
		t.Errorf("ANY: %v %v", rrs, res)
	}
}

func TestZoneChildrenAndRecords(t *testing.T) {
	z := NewZone("global")
	z.Add(RR{Name: "emory.global", Type: TypeTXT, Txt: []string{"u"}})
	z.Add(RR{Name: "gatech.global", Type: TypeTXT, Txt: []string{"u"}})
	z.Add(RR{Name: "mathcs.emory.global", Type: TypeTXT, Txt: []string{"d"}})
	kids := z.Children("global")
	if !reflect.DeepEqual(kids, []string{"emory", "gatech", "ns1"}) {
		// ns1 comes from the default SOA MName? No: SOA lives at origin.
		t.Logf("children = %v", kids)
	}
	if !contains(kids, "emory") || !contains(kids, "gatech") {
		t.Errorf("children = %v", kids)
	}
	kids = z.Children("emory.global")
	if !reflect.DeepEqual(kids, []string{"mathcs"}) {
		t.Errorf("children(emory) = %v", kids)
	}
	recs := z.RecordsAt("mathcs.emory.global")
	if len(recs) != 1 || recs[0].Txt[0] != "d" {
		t.Errorf("records = %v", recs)
	}
	if !z.Exists("emory.global") || z.Exists("nope.global") {
		t.Error("Exists wrong")
	}
}

func TestZoneReplaceRemove(t *testing.T) {
	z := NewZone("z")
	z.Add(RR{Name: "a.z", Type: TypeTXT, Txt: []string{"1"}})
	z.Replace("a.z", TypeTXT, RR{Txt: []string{"2"}})
	rrs, _ := z.Lookup("a.z", TypeTXT)
	if len(rrs) != 1 || rrs[0].Txt[0] != "2" {
		t.Errorf("after replace: %v", rrs)
	}
	z.Remove("a.z", TypeTXT)
	if z.Exists("a.z") {
		t.Error("remove failed")
	}
	// Replace with empty deletes.
	z.Add(RR{Name: "b.z", Type: TypeTXT, Txt: []string{"1"}})
	z.Replace("b.z", TypeTXT)
	if z.Exists("b.z") {
		t.Error("replace-with-empty failed")
	}
}

func newTestServer(t *testing.T) (*Server, *Resolver) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	z := NewZone("global")
	z.Add(RR{Name: "emory.global", Type: TypeA, A: netip.MustParseAddr("10.10.0.1")})
	z.Add(RR{Name: "emory.global", Type: TypeTXT, Txt: []string{"Emory University"}})
	z.Add(RR{Name: "_hdns._tcp.global", Type: TypeSRV, Pref: 1, Weight: 1, Port: 9999, Target: "node1.global"})
	z.Add(RR{Name: "node1.global", Type: TypeA, A: netip.MustParseAddr("127.0.0.1")})
	s.AddZone(z)
	return s, NewResolver(s.Addr())
}

func TestServerQuery(t *testing.T) {
	ctx := context.Background()
	_, r := newTestServer(t)
	addrs, err := r.LookupA(ctx, "emory.global")
	if err != nil || len(addrs) != 1 || addrs[0] != "10.10.0.1" {
		t.Fatalf("LookupA = %v, %v", addrs, err)
	}
	txt, err := r.LookupTXT(ctx, "emory.global")
	if err != nil || len(txt) != 1 || txt[0] != "Emory University" {
		t.Fatalf("LookupTXT = %v, %v", txt, err)
	}
	srvs, err := r.LookupSRV(ctx, "_hdns._tcp.global")
	if err != nil || len(srvs) != 1 || srvs[0].Port != 9999 || srvs[0].Host != "node1.global." {
		t.Fatalf("LookupSRV = %+v, %v", srvs, err)
	}
}

func TestServerNXDomainAndRefused(t *testing.T) {
	ctx := context.Background()
	_, r := newTestServer(t)
	_, err := r.LookupA(ctx, "ghost.global")
	if !IsNXDomain(err) {
		t.Errorf("want NXDOMAIN, got %v", err)
	}
	_, err = r.LookupA(ctx, "elsewhere.org")
	var re *RcodeError
	if err == nil || !strings.Contains(err.Error(), "REFUSED") {
		t.Errorf("want REFUSED, got %v", err)
	}
	_ = re
}

// A shed query allocates its decode, the admission refusal and its busy
// answer, and nothing else: the normal answer is built inside the
// pipeline stage, never for a query that is turned away.
func TestShedQueryAllocs(t *testing.T) {
	ctrl := admission.NewController(admission.NewOptions(
		admission.WithServer("dns-shed-allocs"), admission.WithQueueBound(1)))
	s, err := NewServer("127.0.0.1:0", nil, WithAdmission(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release, err := ctrl.Admit(admission.Read, "test", "hold")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	pkt := mustEncode(t, &Message{Header: Header{ID: 7, RD: true},
		Questions: []Question{{Name: "a.global.", Type: TypeA, Class: ClassIN}}})
	resp, err := DecodeMessage(s.handle(pkt))
	if err != nil || resp.Header.Rcode != RcodeRefused || len(resp.Additional) != 1 {
		t.Fatalf("shed answer = %+v, %v; want REFUSED with the retry hint", resp, err)
	}
	addr := s.Addr()
	alone := testing.AllocsPerRun(100, func() {
		req, _ := DecodeMessage(pkt)
		_, _ = ctrl.Admit(admission.Read, addr, "dns.query")
		_ = busyResponse(req, time.Millisecond)
	})
	if n := testing.AllocsPerRun(100, func() { _ = s.handle(pkt) }); n > alone {
		t.Errorf("shed handle: %v allocs, decode + shed + busyResponse alone %v", n, alone)
	}
}

func TestTCPFallbackOnTruncation(t *testing.T) {
	ctx := context.Background()
	s, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	z := NewZone("big")
	// ~40 TXT records of 60 bytes blow past 512 bytes.
	for i := 0; i < 40; i++ {
		z.Add(RR{Name: "fat.big", Type: TypeTXT, Txt: []string{strings.Repeat("x", 60)}})
	}
	s.AddZone(z)
	r := NewResolver(s.Addr())
	txt, err := r.LookupTXT(ctx, "fat.big")
	if err != nil {
		t.Fatal(err)
	}
	if len(txt) != 40 {
		t.Errorf("got %d TXT strings over TCP fallback", len(txt))
	}
}

func TestZoneTransfer(t *testing.T) {
	ctx := context.Background()
	_, r := newTestServer(t)
	rrs, err := r.TransferZone(ctx, "global")
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) < 5 || rrs[0].Type != TypeSOA {
		t.Fatalf("AXFR = %d records, first %v", len(rrs), rrs[0])
	}
	found := false
	for _, rr := range rrs {
		if rr.Type == TypeSRV && rr.Port == 9999 {
			found = true
		}
	}
	if !found {
		t.Error("SRV record missing from transfer")
	}
}

func TestResolverTimeout(t *testing.T) {
	ctx := context.Background()
	r := NewResolver("127.0.0.1:1") // nothing listening
	r.Timeout = 100 * time.Millisecond
	r.Retries = 1
	start := time.Now()
	_, err := r.LookupA(ctx, "x.y")
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout not respected")
	}
}

func TestHostFromAuthority(t *testing.T) {
	if got := HostFromAuthority("", "53"); got != "127.0.0.1:53" {
		t.Errorf("empty = %q", got)
	}
	if got := HostFromAuthority("h", "53"); got != "h:53" {
		t.Errorf("no port = %q", got)
	}
	if got := HostFromAuthority("h:99", "53"); got != "h:99" {
		t.Errorf("with port = %q", got)
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestNewServerPortZeroRetriesWhenUDPPortHeld: the port TCP hands out for
// ":0" may be held by a UDP socket. The first candidate here always is.
func TestNewServerPortZeroRetriesWhenUDPPortHeld(t *testing.T) {
	var held []*net.UDPConn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	calls := 0
	// holdFirst is net.Listen, except that it occupies the UDP port of
	// the first listener it returns.
	holdFirst := func(network, addr string) (net.Listener, error) {
		l, err := net.Listen(network, addr)
		if calls++; err != nil || calls > 1 {
			return l, err
		}
		u, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(l.Addr().(*net.TCPAddr).AddrPort()))
		if err != nil {
			t.Fatalf("hold udp %s: %v", l.Addr(), err)
		}
		held = append(held, u)
		return l, nil
	}
	tcp, udp, err := listenPair("127.0.0.1:0", holdFirst)
	if err != nil {
		t.Fatalf("listenPair with the first UDP port held: %v", err)
	}
	defer tcp.Close()
	defer udp.Close()
	if calls != 2 {
		t.Errorf("%d TCP listens, want 2 (one retry)", calls)
	}
	if tp, up := tcp.Addr().(*net.TCPAddr).Port, udp.LocalAddr().(*net.UDPAddr).Port; tp != up || tp == held[0].LocalAddr().(*net.UDPAddr).Port {
		t.Errorf("tcp port %d, udp port %d, held port %d", tp, up, held[0].LocalAddr().(*net.UDPAddr).Port)
	}

	// A port the caller named is not swapped for another one.
	calls = 0
	counted := func(network, addr string) (net.Listener, error) {
		calls++
		return net.Listen(network, addr)
	}
	fixed := held[0].LocalAddr().String()
	if _, _, err := listenPair(fixed, counted); !errors.Is(err, syscall.EADDRINUSE) {
		t.Errorf("listenPair(%s) with its UDP port held: %v, want EADDRINUSE", fixed, err)
	}
	if calls != 1 {
		t.Errorf("fixed port: %d TCP listens, want 1", calls)
	}
}

package dnssrv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/serverutil"
)

// maxUDPResponse is the classic RFC 1035 UDP payload limit; larger
// responses are truncated and the client retries over TCP.
const maxUDPResponse = 512

// busyName is the owner name of the TXT record that rides a REFUSED
// response when the server sheds load: DNS has no busy rcode, so the
// retry hint travels as "retry-after-ms=N" in the Additional section.
// Resolvers that know the convention surface a typed busy error; anyone
// else just sees REFUSED.
const busyName = "retry-after.gondi."

// Server is an authoritative DNS server over UDP and TCP (the Bind
// stand-in of §7). It serves one or more zones and answers queries for
// the closest enclosing zone; names outside every zone are REFUSED.
type Server struct {
	mu    sync.RWMutex
	zones map[string]*Zone // canonical origin -> zone
	adm   *admission.Controller
	// query and axfr serve point queries and zone transfers.
	query, axfr *serverutil.Stage

	udp *net.UDPConn
	tcp net.Listener
	wg  sync.WaitGroup

	closeOnce sync.Once
}

// ServerOption tunes a server at construction.
type ServerOption func(*Server)

// WithAdmission gates every query through c; nil admits everything.
func WithAdmission(c *admission.Controller) ServerOption {
	return func(s *Server) { s.adm = c }
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0"); UDP and TCP
// listeners share the chosen port. costs is charged by the server's
// request pipeline and may be nil for full speed.
func NewServer(addr string, costs serverutil.Costs, opts ...ServerOption) (*Server, error) {
	tcp, udp, err := listenPair(addr, net.Listen)
	if err != nil {
		return nil, err
	}
	s := &Server{zones: map[string]*Zone{}, udp: udp, tcp: tcp}
	for _, o := range opts {
		o(s)
	}
	p := serverutil.NewPipeline("dns", s.Addr(), s.adm, costs)
	s.query, s.axfr = p.Stage("dns.query", admission.Read), p.Stage("dns.axfr", admission.Search)
	s.wg.Add(2)
	go s.serveUDP()
	go s.serveTCP()
	return s, nil
}

// listenPair binds TCP (through listen) and then UDP on the port TCP got.
// When addr asks for port 0 the kernel picks that port from the TCP space
// alone, and some UDP socket — a resolver's — may hold the same number:
// the pair is then retried on a fresh port. A fixed port is tried once.
func listenPair(addr string, listen func(network, addr string) (net.Listener, error)) (net.Listener, *net.UDPConn, error) {
	attempts := 1
	if _, port, err := net.SplitHostPort(addr); err == nil && (port == "0" || port == "") {
		attempts = 10
	}
	for attempt := 1; ; attempt++ {
		tcp, err := listen("tcp", addr)
		if err != nil {
			return nil, nil, err
		}
		uaddr, err := net.ResolveUDPAddr("udp", tcp.Addr().String())
		if err != nil {
			tcp.Close()
			return nil, nil, err
		}
		udp, err := net.ListenUDP("udp", uaddr)
		if err == nil {
			return tcp, udp, nil
		}
		tcp.Close()
		if attempt == attempts || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, nil, err
		}
	}
}

// Addr returns the server address (host:port), identical for UDP and TCP.
func (s *Server) Addr() string { return s.tcp.Addr().String() }

// AddZone makes the server authoritative for z.
func (s *Server) AddZone(z *Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin()] = z
}

// Zone returns the zone with the given origin.
func (s *Server) Zone(origin string) (*Zone, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	z, ok := s.zones[CanonicalName(origin)]
	return z, ok
}

// findZone locates the longest-suffix zone enclosing name.
func (s *Server) findZone(name string) *Zone {
	name = CanonicalName(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best *Zone
	bestLen := -1
	for origin, z := range s.zones {
		if z.Contains(name) && len(origin) > bestLen {
			best, bestLen = z, len(origin)
		}
	}
	return best
}

// Close stops the listeners and waits for in-flight handlers.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.udp.Close()
		s.tcp.Close()
	})
	s.wg.Wait()
	return nil
}

// queries recycles the copies serveUDP hands its handlers: a query
// fits in maxUDPResponse bytes, and nothing keeps one once answered.
var queries = sync.Pool{New: func() any { return new([maxUDPResponse]byte) }}

func (s *Server) serveUDP() {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, peer, err := s.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		var q *[maxUDPResponse]byte
		var pkt []byte
		if n <= maxUDPResponse {
			q = queries.Get().(*[maxUDPResponse]byte)
			pkt = q[:n]
		} else {
			pkt = make([]byte, n)
		}
		copy(pkt, buf[:n])
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if resp := s.handle(pkt); resp != nil {
				if len(resp) > maxUDPResponse {
					resp = s.truncate(pkt)
				}
				_, _ = s.udp.WriteToUDPAddrPort(resp, peer)
			}
			if q != nil {
				queries.Put(q)
			}
		}()
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			defer conn.Close()
			for {
				var lenBuf [2]byte
				if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
					return
				}
				n := binary.BigEndian.Uint16(lenBuf[:])
				pkt := make([]byte, n)
				if _, err := io.ReadFull(conn, pkt); err != nil {
					return
				}
				resp := s.handle(pkt)
				if resp == nil {
					return
				}
				out := make([]byte, 2+len(resp))
				binary.BigEndian.PutUint16(out, uint16(len(resp)))
				copy(out[2:], resp)
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}(conn)
	}
}

// truncate produces a TC=1 header-only response for an oversized UDP
// answer.
func (s *Server) truncate(reqPkt []byte) []byte {
	req, err := DecodeMessage(reqPkt)
	if err != nil {
		return nil
	}
	resp := reply(req)
	resp.Header.AA, resp.Header.TC = true, true
	out, err := resp.Encode()
	if err != nil {
		return nil
	}
	return out
}

// handle processes one wire-format query and returns the wire-format
// response (nil to drop).
func (s *Server) handle(pkt []byte) []byte {
	req, err := DecodeMessage(pkt)
	if err != nil || req.Header.QR || len(req.Questions) == 0 {
		return nil
	}
	if req.Header.Opcode != 0 {
		resp := reply(req)
		resp.Header.Rcode = RcodeNotImpl
		out, _ := resp.Encode()
		return out
	}
	st := s.query
	if req.Questions[0].Type == TypeAXFR {
		st = s.axfr
	}
	out, err := st.Serve(len(pkt), func() ([]byte, error) { return s.answer(req), nil })
	if busy, ok := err.(*core.ServerBusyError); ok {
		return busyResponse(req, busy.RetryAfter)
	}
	return out
}

// reply starts the response to req: its ID, flags and question.
func reply(req *Message) *Message {
	return &Message{Header: Header{ID: req.Header.ID, QR: true, RD: req.Header.RD}, Questions: req.Questions}
}

// answer resolves an admitted query into its wire-format response.
func (s *Server) answer(req *Message) []byte {
	resp := reply(req)
	q := req.Questions[0]
	z := s.findZone(q.Name)
	if z == nil {
		resp.Header.Rcode = RcodeRefused
		out, _ := resp.Encode()
		return out
	}
	resp.Header.AA = true
	if q.Type == TypeAXFR {
		// Zone transfer (used by the JNDI DNS provider's List); the
		// resolver issues it over TCP where size is unbounded.
		resp.Answers = z.AllRecords()
		out, err := resp.Encode()
		if err != nil {
			return nil
		}
		return out
	}
	answers, result := z.Lookup(q.Name, q.Type)
	resp.Answers = answers
	switch result {
	case lookupNXDomain:
		resp.Header.Rcode = RcodeNXDomain
		if soa, ok := z.SOA(); ok {
			resp.Authority = append(resp.Authority, soa)
		}
	case lookupNoData:
		if soa, ok := z.SOA(); ok {
			resp.Authority = append(resp.Authority, soa)
		}
	case lookupHit:
		// Glue: resolve SRV/MX/NS targets to addresses when known.
		for _, rr := range answers {
			if rr.Type == TypeSRV || rr.Type == TypeMX || rr.Type == TypeNS {
				glue, res := z.Lookup(rr.Target, TypeA)
				if res == lookupHit {
					resp.Additional = append(resp.Additional, glue...)
				}
			}
		}
	}
	out, err := resp.Encode()
	if err != nil {
		resp2 := &Message{Header: Header{ID: req.Header.ID, QR: true, Rcode: RcodeServFail}}
		out, _ = resp2.Encode()
	}
	return out
}

// busyResponse encodes the shed answer: REFUSED plus the retry-hint TXT
// record under busyName in the Additional section.
func busyResponse(req *Message, retryAfter time.Duration) []byte {
	resp := reply(req)
	resp.Header.Rcode = RcodeRefused
	resp.Additional = append(resp.Additional, RR{
		Name: busyName, Type: TypeTXT, Class: ClassIN,
		Txt: []string{fmt.Sprintf("retry-after-ms=%d", retryAfter.Milliseconds())},
	})
	out, _ := resp.Encode()
	return out
}

// HostFromAuthority splits "host:port" tolerantly, defaulting the port.
func HostFromAuthority(authority, defaultPort string) string {
	if authority == "" {
		return "127.0.0.1:" + defaultPort
	}
	if strings.Contains(authority, ":") {
		return authority
	}
	return authority + ":" + defaultPort
}

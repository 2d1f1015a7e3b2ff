package ldapsrv

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/ldapsrv/ber"
	"gondi/internal/serverutil"
)

// maxBERMessage bounds one LDAP PDU.
const maxBERMessage = 16 << 20

// readBER reads exactly one BER element, and its length, from the stream.
func readBER(r io.Reader) (*ber.Packet, int, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	if hdr[0]&0x1F == 0x1F {
		return nil, 0, ber.ErrTagNumber
	}
	raw := []byte{hdr[0], hdr[1]}
	length := int(hdr[1])
	if length == 0x80 {
		return nil, 0, ber.ErrIndefinite
	}
	if length&0x80 != 0 {
		n := length & 0x7F
		if n > 4 {
			return nil, 0, fmt.Errorf("ldap: message length field of %d bytes", n)
		}
		extra := make([]byte, n)
		if _, err := io.ReadFull(r, extra); err != nil {
			return nil, 0, err
		}
		raw = append(raw, extra...)
		length = 0
		for _, b := range extra {
			length = length<<8 | int(b)
		}
	}
	if length > maxBERMessage {
		return nil, 0, fmt.Errorf("ldap: message of %d bytes exceeds limit", length)
	}
	content := make([]byte, length)
	if _, err := io.ReadFull(r, content); err != nil {
		return nil, 0, err
	}
	return ber.Decode(append(raw, content...))
}

// ServerConfig configures the LDAP server.
type ServerConfig struct {
	// BaseDN roots the served tree (default "dc=example,dc=com").
	BaseDN string
	// RootDN/RootPassword is the administrative identity; simple binds
	// as other DNs are checked against each entry's userPassword.
	RootDN       string
	RootPassword string
	// RequireAuthForWrite rejects writes from anonymous connections.
	RequireAuthForWrite bool
	// Costs is charged by the server's request pipeline; nil runs full
	// speed. See serverutil.Costs for the rule.
	Costs serverutil.Costs
	// Admission gates every operation; nil admits everything.
	Admission *admission.Controller
}

// Server is the LDAP server.
type Server struct {
	cfg ServerConfig
	dit *DIT
	lis net.Listener
	ops map[byte]ldapOp
	wg  sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer starts an LDAP server on addr.
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.BaseDN == "" {
		cfg.BaseDN = "dc=example,dc=com"
	}
	dit, err := NewDIT(cfg.BaseDN)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, dit: dit, lis: lis, conns: map[net.Conn]struct{}{}}
	p := serverutil.NewPipeline("ldap", s.Addr(), cfg.Admission, cfg.Costs)
	one := func(h func(*session, *ber.Packet) *ber.Packet) func(*session, *ber.Packet) []*ber.Packet {
		return func(sess *session, op *ber.Packet) []*ber.Packet { return []*ber.Packet{h(sess, op)} }
	}
	s.ops = map[byte]ldapOp{
		AppBindRequest:     {p.Stage("ldap.bind", admission.Read), AppBindResponse, one(s.handleBind)},
		AppSearchRequest:   {p.Stage("ldap.search", admission.Search), AppSearchDone, s.handleSearch},
		AppAddRequest:      {p.Stage("ldap.add", admission.Write), AppAddResponse, one(s.handleAdd)},
		AppDelRequest:      {p.Stage("ldap.delete", admission.Write), AppDelResponse, one(s.handleDelete)},
		AppModifyRequest:   {p.Stage("ldap.modify", admission.Write), AppModifyResponse, one(s.handleModify)},
		AppModifyDNRequest: {p.Stage("ldap.modifydn", admission.Write), AppModifyDNResponse, one(s.handleModifyDN)},
		AppCompareRequest:  {p.Stage("ldap.compare", admission.Read), AppCompareResponse, one(s.handleCompare)},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// DIT exposes the server's tree for test seeding and the daemon CLI.
func (s *Server) DIT() *DIT { return s.dit }

// Close stops the server, force-closing active client connections
// (long-lived pooled clients would otherwise keep it alive forever).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.lis.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

type session struct {
	mu     sync.Mutex
	bindDN string // empty = anonymous
}

func (sess *session) setBindDN(dn string) {
	sess.mu.Lock()
	sess.bindDN = dn
	sess.mu.Unlock()
}

func (sess *session) getBindDN() string {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.bindDN
}

// serveConn dispatches each message on its own goroutine so pipelined
// clients overlap server-side work; each message's response group is
// written in one piece, so it stays contiguous on the connection.
func (s *Server) serveConn(conn net.Conn) {
	var wg sync.WaitGroup
	defer conn.Close()
	defer wg.Wait()
	var wmu sync.Mutex
	sess := &session{}
	for {
		msg, n, err := readBER(conn)
		if err != nil {
			return
		}
		id, op, err := UnwrapMessage(msg)
		if err != nil {
			return
		}
		if op.TagNumber() == AppUnbindRequest {
			return
		}
		wg.Add(1)
		go func(id int64, op *ber.Packet, n int) {
			defer wg.Done()
			out := s.dispatch(sess, id, op, n)
			wmu.Lock()
			defer wmu.Unlock()
			// A failed write leaves the broken connection to the next read.
			_, _ = conn.Write(out)
		}(id, op, n)
	}
}

// ldapOp is the pipeline entry of one request tag: the stage that
// serves it, the tag of the response that closes it (a shed answers
// with that tag) and its handler.
type ldapOp struct {
	stage   *serverutil.Stage
	doneTag byte
	handle  func(sess *session, op *ber.Packet) []*ber.Packet
}

// dispatch handles protocol op id, a request of n bytes, and returns its
// encoded response message(s). They are encoded inside the stage, which
// charges reads by the length of what they send back.
func (s *Server) dispatch(sess *session, id int64, op *ber.Packet, n int) []byte {
	e, ok := s.ops[op.TagNumber()]
	if !ok {
		return encodeMessages(id, EncodeResult(AppSearchDone, Result{
			Code: ResultProtocolError, Message: "unsupported operation",
		}))
	}
	out, err := e.stage.Serve(n, func() ([]byte, error) {
		return encodeMessages(id, e.handle(sess, op)...), nil
	})
	if busy, ok := err.(*core.ServerBusyError); ok {
		// LDAP has a busy result code (RFC 4511 §A.2); the retry hint
		// travels in the diagnostic message.
		msg := fmt.Sprintf("%s%d", retryAfterPrefix, busy.RetryAfter.Milliseconds())
		return encodeMessages(id, EncodeResult(e.doneTag, Result{Code: ResultBusy, Message: msg}))
	}
	return out
}

// encodeMessages wraps each op as message id and encodes them back to
// back.
func encodeMessages(id int64, ops ...*ber.Packet) []byte {
	out := WrapMessage(id, ops[0]).Encode()
	for _, op := range ops[1:] {
		out = append(out, WrapMessage(id, op).Encode()...)
	}
	return out
}

func (s *Server) handleBind(sess *session, op *ber.Packet) *ber.Packet {
	fail := func(code int, msg string) *ber.Packet {
		return EncodeResult(AppBindResponse, Result{Code: code, Message: msg})
	}
	if len(op.Children) < 3 {
		return fail(ResultProtocolError, "short bind request")
	}
	dn := op.Children[1].Str()
	cred := op.Children[2]
	if cred.Class() != ber.ClassContext || cred.TagNumber() != 0 {
		return fail(ResultOther, "only simple bind supported")
	}
	password := cred.Str()
	switch {
	case dn == "" && password == "":
		sess.setBindDN("")
	case s.cfg.RootDN != "" && MustParseDN(s.cfg.RootDN).Normalize() == mustNormalize(dn) && password == s.cfg.RootPassword:
		sess.setBindDN(dn)
	case s.dit.CheckPassword(dn, password):
		sess.setBindDN(dn)
	default:
		return fail(ResultInvalidCredentials, "")
	}
	return EncodeResult(AppBindResponse, Result{Code: ResultSuccess})
}

func mustNormalize(dn string) string {
	d, err := ParseDN(dn)
	if err != nil {
		return "\x00invalid"
	}
	return d.Normalize()
}

func (s *Server) authorizeWrite(sess *session) bool {
	return !s.cfg.RequireAuthForWrite || sess.getBindDN() != ""
}

func (s *Server) handleSearch(_ *session, op *ber.Packet) []*ber.Packet {
	done := func(r Result) []*ber.Packet {
		return []*ber.Packet{EncodeResult(AppSearchDone, r)}
	}
	if len(op.Children) < 8 {
		return done(Result{Code: ResultProtocolError, Message: "short search request"})
	}
	baseDN := op.Children[0].Str()
	scope64, err := op.Children[1].Int()
	if err != nil {
		return done(Result{Code: ResultProtocolError})
	}
	sizeLimit64, err := op.Children[3].Int()
	if err != nil {
		return done(Result{Code: ResultProtocolError})
	}
	timeLimit64, err := op.Children[4].Int()
	if err != nil {
		return done(Result{Code: ResultProtocolError})
	}
	typesOnly := op.Children[5].Bool()
	f, err := DecodeFilter(op.Children[6])
	if err != nil {
		return done(Result{Code: ResultProtocolError, Message: err.Error()})
	}
	var attrs []string
	for _, a := range op.Children[7].Children {
		attrs = append(attrs, a.Str())
	}
	entries, res := s.dit.Search(baseDN, int(scope64), f, int(sizeLimit64), time.Duration(timeLimit64)*time.Second, attrs, typesOnly)
	out := make([]*ber.Packet, 0, len(entries)+1)
	for _, e := range entries {
		out = append(out, ber.NewApplication(AppSearchEntry, true,
			ber.NewOctetString(e.DN), EncodeAttrs(e.Attrs)))
	}
	return append(out, EncodeResult(AppSearchDone, res))
}

func (s *Server) handleAdd(sess *session, op *ber.Packet) *ber.Packet {
	if !s.authorizeWrite(sess) {
		return EncodeResult(AppAddResponse, Result{Code: ResultInsufficientAccess})
	}
	if len(op.Children) < 2 {
		return EncodeResult(AppAddResponse, Result{Code: ResultProtocolError})
	}
	attrs, err := DecodeAttrs(op.Children[1])
	if err != nil {
		return EncodeResult(AppAddResponse, Result{Code: ResultProtocolError, Message: err.Error()})
	}
	return EncodeResult(AppAddResponse, s.dit.Add(op.Children[0].Str(), attrs))
}

func (s *Server) handleDelete(sess *session, op *ber.Packet) *ber.Packet {
	if !s.authorizeWrite(sess) {
		return EncodeResult(AppDelResponse, Result{Code: ResultInsufficientAccess})
	}
	// DelRequest is a primitive application element whose content is
	// the DN itself.
	return EncodeResult(AppDelResponse, s.dit.Delete(string(op.Data)))
}

func (s *Server) handleModify(sess *session, op *ber.Packet) *ber.Packet {
	if !s.authorizeWrite(sess) {
		return EncodeResult(AppModifyResponse, Result{Code: ResultInsufficientAccess})
	}
	if len(op.Children) < 2 {
		return EncodeResult(AppModifyResponse, Result{Code: ResultProtocolError})
	}
	var changes []ModifyChange
	for _, c := range op.Children[1].Children {
		if len(c.Children) != 2 || len(c.Children[1].Children) != 2 {
			return EncodeResult(AppModifyResponse, Result{Code: ResultProtocolError})
		}
		opc, err := c.Children[0].Int()
		if err != nil {
			return EncodeResult(AppModifyResponse, Result{Code: ResultProtocolError})
		}
		pa := c.Children[1]
		attr := EntryAttr{Type: pa.Children[0].Str()}
		for _, v := range pa.Children[1].Children {
			attr.Vals = append(attr.Vals, v.Str())
		}
		changes = append(changes, ModifyChange{Op: int(opc), Attr: attr})
	}
	return EncodeResult(AppModifyResponse, s.dit.Modify(op.Children[0].Str(), changes))
}

func (s *Server) handleModifyDN(sess *session, op *ber.Packet) *ber.Packet {
	if !s.authorizeWrite(sess) {
		return EncodeResult(AppModifyDNResponse, Result{Code: ResultInsufficientAccess})
	}
	if len(op.Children) < 3 {
		return EncodeResult(AppModifyDNResponse, Result{Code: ResultProtocolError})
	}
	return EncodeResult(AppModifyDNResponse,
		s.dit.ModifyDN(op.Children[0].Str(), op.Children[1].Str(), op.Children[2].Bool()))
}

func (s *Server) handleCompare(_ *session, op *ber.Packet) *ber.Packet {
	if len(op.Children) < 2 || len(op.Children[1].Children) < 2 {
		return EncodeResult(AppCompareResponse, Result{Code: ResultProtocolError})
	}
	dn := op.Children[0].Str()
	attrType := op.Children[1].Children[0].Str()
	value := op.Children[1].Children[1].Str()
	e, ok := s.dit.Get(dn)
	if !ok {
		return EncodeResult(AppCompareResponse, Result{Code: ResultNoSuchObject})
	}
	for _, v := range e.Get(attrType) {
		if v == value {
			return EncodeResult(AppCompareResponse, Result{Code: ResultCompareTrue})
		}
	}
	return EncodeResult(AppCompareResponse, Result{Code: ResultCompareFalse})
}

package ldapsrv

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/ldapsrv/ber"
	"gondi/internal/serverutil"
)

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
	cfg     ServerConfig
	rootKey string // cfg.RootDN normalized; "" when there is none
	dit     *DIT
	lis     net.Listener
	ops     map[byte]ldapOp
	wg      sync.WaitGroup

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
	var rootKey string
	if cfg.RootDN != "" {
		root, err := ParseDN(cfg.RootDN)
		if err != nil {
			return nil, fmt.Errorf("ldapsrv: root DN: %w", err)
		}
		rootKey = root.Normalize()
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, rootKey: rootKey, dit: dit, lis: lis, conns: map[net.Conn]struct{}{}}
	p := serverutil.NewPipeline("ldap", s.Addr(), cfg.Admission, cfg.Costs)
	op := func(method string, class admission.Class, doneTag byte, handle func(*session, []byte) ([]Entry, Result)) ldapOp {
		return ldapOp{p.Stage(method, class), class == admission.Write, doneTag, handle}
	}
	s.ops = map[byte]ldapOp{
		AppBindRequest:     op("ldap.bind", admission.Read, AppBindResponse, s.handleBind),
		AppSearchRequest:   op("ldap.search", admission.Search, AppSearchDone, s.handleSearch),
		AppAddRequest:      op("ldap.add", admission.Write, AppAddResponse, s.handleAdd),
		AppDelRequest:      op("ldap.delete", admission.Write, AppDelResponse, s.handleDelete),
		AppModifyRequest:   op("ldap.modify", admission.Write, AppModifyResponse, s.handleModify),
		AppModifyDNRequest: op("ldap.modifydn", admission.Write, AppModifyDNResponse, s.handleModifyDN),
		AppCompareRequest:  op("ldap.compare", admission.Read, AppCompareResponse, s.handleCompare),
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
	fr := &frameReader{r: conn}
	for {
		msg, err := fr.read()
		if err != nil {
			return
		}
		id, op, err := splitMessage(msg)
		if err != nil {
			return
		}
		if opNum(op) == AppUnbindRequest {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := s.dispatch(sess, id, op, len(msg))
			wmu.Lock()
			defer wmu.Unlock()
			// A failed write leaves the broken connection to the next read.
			_, _ = conn.Write(out)
		}()
	}
}

// ldapOp is the pipeline entry of one request tag: the stage that
// serves it, whether it writes (an anonymous session may not when the
// server requires auth for writes), the tag of the response that closes
// it (a shed answers with that tag) and its handler, which reads the
// whole op and returns the entries to send before that response and its
// result.
type ldapOp struct {
	stage   *serverutil.Stage
	write   bool
	doneTag byte
	handle  func(sess *session, op []byte) ([]Entry, Result)
}

// dispatch handles protocol op id, a request of n bytes, and returns its
// encoded response message(s). They are encoded inside the stage, which
// charges reads by the length of what they send back.
func (s *Server) dispatch(sess *session, id int64, op []byte, n int) []byte {
	e, ok := s.ops[opNum(op)]
	if !ok {
		return encodeReply(id, nil, AppSearchDone, Result{
			Code: ResultProtocolError, Message: "unsupported operation",
		})
	}
	out, err := e.stage.Serve(n, func() ([]byte, error) {
		if e.write && s.cfg.RequireAuthForWrite && sess.getBindDN() == "" {
			return encodeReply(id, nil, e.doneTag, Result{Code: ResultInsufficientAccess}), nil
		}
		entries, res := e.handle(sess, op)
		return encodeReply(id, entries, e.doneTag, res), nil
	})
	if busy, ok := err.(*core.ServerBusyError); ok {
		// LDAP has a busy result code (RFC 4511 §A.2); the retry hint
		// travels in the diagnostic message.
		msg := fmt.Sprintf("%s%d", retryAfterPrefix, busy.RetryAfter.Milliseconds())
		return encodeReply(id, nil, e.doneTag, Result{Code: ResultBusy, Message: msg})
	}
	return out
}

// encodeReply appends a request's response messages into one buffer: a
// search entry message per entry, then the result that closes it.
func encodeReply(id int64, entries []Entry, doneTag byte, r Result) []byte {
	b := ber.NewBuilder(make([]byte, 0, 256))
	for i := range entries {
		m := beginMessage(&b, id)
		appendEntry(&b, &entries[i])
		b.End(m)
	}
	m := beginMessage(&b, id)
	appendResult(&b, doneTag, r)
	b.End(m)
	return b.Bytes()
}

// protocolError answers a request the server cannot read.
func protocolError(err error) Result {
	return Result{Code: ResultProtocolError, Message: err.Error()}
}

func (s *Server) handleBind(sess *session, op []byte) ([]Entry, Result) {
	dn, password, err := readBindRequest(op)
	switch {
	case errors.Is(err, errAuthMethod):
		return nil, Result{Code: ResultOther, Message: err.Error()}
	case err != nil:
		return nil, protocolError(err)
	case dn == "" && password == "":
		sess.setBindDN("")
	case s.rootKey != "" && mustNormalize(dn) == s.rootKey && password == s.cfg.RootPassword:
		sess.setBindDN(dn)
	case s.dit.CheckPassword(dn, password):
		sess.setBindDN(dn)
	default:
		return nil, Result{Code: ResultInvalidCredentials}
	}
	return nil, Result{Code: ResultSuccess}
}

func mustNormalize(dn string) string {
	d, err := ParseDN(dn)
	if err != nil {
		return "\x00invalid"
	}
	return d.Normalize()
}

func (s *Server) handleSearch(_ *session, op []byte) ([]Entry, Result) {
	q, err := readSearchRequest(op)
	if err != nil {
		return nil, protocolError(err)
	}
	return s.dit.Search(q.baseDN, int(q.scope), q.filter, int(q.sizeLimit),
		time.Duration(q.timeLimit)*time.Second, q.attrs, q.typesOnly)
}

func (s *Server) handleAdd(_ *session, op []byte) ([]Entry, Result) {
	dn, attrs, err := readAddRequest(op)
	if err != nil {
		return nil, protocolError(err)
	}
	return nil, s.dit.Add(dn, attrs)
}

func (s *Server) handleDelete(_ *session, op []byte) ([]Entry, Result) {
	dn, err := readDelRequest(op)
	if err != nil {
		return nil, protocolError(err)
	}
	return nil, s.dit.Delete(dn)
}

func (s *Server) handleModify(_ *session, op []byte) ([]Entry, Result) {
	dn, changes, err := readModifyRequest(op)
	if err != nil {
		return nil, protocolError(err)
	}
	return nil, s.dit.Modify(dn, changes)
}

func (s *Server) handleModifyDN(_ *session, op []byte) ([]Entry, Result) {
	dn, newRDN, deleteOldRDN, err := readModifyDNRequest(op)
	if err != nil {
		return nil, protocolError(err)
	}
	return nil, s.dit.ModifyDN(dn, newRDN, deleteOldRDN)
}

func (s *Server) handleCompare(_ *session, op []byte) ([]Entry, Result) {
	dn, attrType, value, err := readCompareRequest(op)
	if err != nil {
		return nil, protocolError(err)
	}
	e, ok := s.dit.Get(dn)
	if !ok {
		return nil, Result{Code: ResultNoSuchObject}
	}
	for _, v := range e.Get(attrType) {
		if v == value {
			return nil, Result{Code: ResultCompareTrue}
		}
	}
	return nil, Result{Code: ResultCompareFalse}
}

package dnssrv

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/core"
	"gondi/internal/obs"
)

// Resolver queries one DNS server over UDP, falling back to TCP on
// truncation, with retries. UDP queries from all goroutines are
// pipelined over one shared socket, correlated by query ID: concurrent
// exchanges overlap on the wire instead of running lockstep each on its
// own socket.
type Resolver struct {
	// Server is the host:port of the name server.
	Server string
	// Timeout bounds each network attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of UDP attempts before failing (default 2).
	Retries int

	mu  sync.Mutex
	rnd *rand.Rand

	pipeMu sync.Mutex
	pipe   *udpPipe
}

// udpIdleGrace is how long the shared socket's read loop lingers with no
// query outstanding before it tears itself down (the next exchange
// redials). Keeps idle resolvers goroutine-free.
const udpIdleGrace = time.Second

// udpPipe is one shared UDP socket with an ID-correlated demux loop.
type udpPipe struct {
	conn net.Conn

	mu      sync.Mutex
	pending map[uint16]chan *Message
	closed  bool
	err     error
}

// errQueryTimeout stands in for the per-socket read timeout the lockstep
// path used to surface; Exchange wraps it as "no response from" exactly
// as before.
var errQueryTimeout = errors.New("i/o timeout awaiting response")

// getPipe returns the live shared socket, dialing one (and starting its
// read loop) when none exists.
func (r *Resolver) getPipe(ctx context.Context) (*udpPipe, error) {
	r.pipeMu.Lock()
	defer r.pipeMu.Unlock()
	if r.pipe != nil {
		r.pipe.mu.Lock()
		alive := !r.pipe.closed
		r.pipe.mu.Unlock()
		if alive {
			return r.pipe, nil
		}
		r.pipe = nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", r.Server)
	if err != nil {
		return nil, err
	}
	p := &udpPipe{conn: conn, pending: map[uint16]chan *Message{}}
	r.pipe = p
	go r.readLoop(p)
	return p, nil
}

// dropPipe tears p down: the socket closes, every pending exchange is
// failed (closed channel = connection death), and the resolver forgets p
// so the next exchange redials.
func (r *Resolver) dropPipe(p *udpPipe, err error) {
	r.pipeMu.Lock()
	if r.pipe == p {
		r.pipe = nil
	}
	r.pipeMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.err = err
	chans := make([]chan *Message, 0, len(p.pending))
	for id, ch := range p.pending {
		delete(p.pending, id)
		chans = append(chans, ch)
	}
	p.mu.Unlock()
	p.conn.Close()
	for _, ch := range chans {
		close(ch)
	}
}

// readLoop demultiplexes responses to their registered exchanges. It
// exits — closing the socket — after udpIdleGrace with nothing pending,
// so an idle resolver holds no goroutine (leak-checked by ptest).
func (r *Resolver) readLoop(p *udpPipe) {
	buf := make([]byte, 64<<10)
	for {
		_ = p.conn.SetReadDeadline(time.Now().Add(udpIdleGrace))
		n, err := p.conn.Read(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				p.mu.Lock()
				idle := len(p.pending) == 0
				p.mu.Unlock()
				if idle {
					r.dropPipe(p, nil)
					return
				}
				continue
			}
			r.dropPipe(p, err)
			return
		}
		resp, derr := DecodeMessage(buf[:n])
		if derr != nil || !resp.Header.QR {
			continue // garbled or not a response; keep reading
		}
		p.deliver(resp)
	}
}

// deliver hands resp to the exchange registered under its ID, if any,
// and frees the ID.
func (p *udpPipe) deliver(resp *Message) {
	p.mu.Lock()
	ch, ok := p.pending[resp.Header.ID]
	if ok {
		delete(p.pending, resp.Header.ID)
	}
	p.mu.Unlock()
	if ok {
		ch <- resp // buffered; remover is the only sender
	}
}

// register claims an unused query ID on p.
func (p *udpPipe) register(r *Resolver) (uint16, chan *Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		err := p.err
		if err == nil {
			err = errors.New("dnssrv: connection closed")
		}
		return 0, nil, err
	}
	for tries := 0; tries < 64; tries++ {
		id := r.id()
		if _, dup := p.pending[id]; dup {
			continue
		}
		ch, _ := replyChans.Get().(chan *Message)
		if ch == nil {
			ch = make(chan *Message, 1)
		}
		p.pending[id] = ch
		return id, ch, nil
	}
	return 0, nil, errors.New("dnssrv: no free query ID")
}

// unregister abandons a registered exchange (timeout, cancellation, or
// after its reply). It deletes id only while ch still owns it: once
// readLoop has matched ch's reply the ID is free, and another exchange
// may already have claimed it.
func (p *udpPipe) unregister(id uint16, ch chan *Message) {
	p.mu.Lock()
	if p.pending[id] == ch {
		delete(p.pending, id)
	}
	p.mu.Unlock()
}

// deathErr reports why the pipe died (set before any channel closes).
func (p *udpPipe) deathErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return errors.New("dnssrv: connection closed")
}

// NewResolver builds a resolver for the given server address.
func NewResolver(server string) *Resolver {
	return &Resolver{
		Server:  server,
		Timeout: 2 * time.Second,
		Retries: 2,
		rnd:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// RcodeError reports a non-zero response code.
type RcodeError struct {
	Name  string
	Rcode uint8
}

func (e *RcodeError) Error() string {
	var n string
	switch e.Rcode {
	case RcodeFormErr:
		n = "FORMERR"
	case RcodeServFail:
		n = "SERVFAIL"
	case RcodeNXDomain:
		n = "NXDOMAIN"
	case RcodeNotImpl:
		n = "NOTIMPL"
	case RcodeRefused:
		n = "REFUSED"
	default:
		n = fmt.Sprintf("RCODE%d", e.Rcode)
	}
	return fmt.Sprintf("dnssrv: query %q: %s", e.Name, n)
}

// IsNXDomain reports whether err is an NXDOMAIN response.
func IsNXDomain(err error) bool {
	if err == nil {
		return false
	}
	var re *RcodeError
	return errors.As(err, &re) && re.Rcode == RcodeNXDomain
}

func (r *Resolver) id() uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rnd == nil {
		r.rnd = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return uint16(r.rnd.Intn(1 << 16))
}

// attemptTimeout clamps the per-attempt timeout to ctx's remaining
// budget, so the ctx deadline is a real socket deadline.
func (r *Resolver) attemptTimeout(ctx context.Context) time.Duration {
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	return timeout
}

// The exchange metrics, registered once, not looked up per exchange.
var (
	mExchanges = obs.Default.Counter("gondi_dns_exchanges_total",
		"DNS query exchanges issued.")
	mExchangeSeconds = obs.Default.Histogram("gondi_dns_exchange_seconds",
		"DNS exchange latency (UDP retries and TCP fallback included).")
	mExchangeErrors = obs.Default.Counter("gondi_dns_exchange_errors_total",
		"DNS exchanges that failed.")
)

// Exchange sends a query message and returns the validated response. ctx
// bounds the whole exchange including retries; its deadline is applied to
// each socket.
//
// Exchanges are gated by the server's process-wide circuit breaker: a
// server that has repeatedly timed out fast-fails with breaker.ErrOpen
// until its cooldown admits a probe. A response with a failure rcode
// (NXDOMAIN, SERVFAIL) counts as success — the server answered.
func (r *Resolver) Exchange(ctx context.Context, req *Message) (_ *Message, rerr error) {
	br := breaker.For(r.Server)
	if err := br.Allow(); err != nil {
		return nil, fmt.Errorf("dnssrv: %s: %w", r.Server, err)
	}
	defer func() {
		// Caller cancellation is not server health: settle the Allow
		// without moving the breaker either way.
		if ctx.Err() != nil {
			br.Cancel()
		} else {
			br.Record(rerr != nil)
		}
	}()
	if obs.On() {
		start := time.Now()
		obs.AddWireRT(ctx)
		defer func() {
			mExchanges.Inc()
			mExchangeSeconds.Since(start)
			if rerr != nil {
				mExchangeErrors.Inc()
			}
		}()
	}
	retries := r.Retries
	if retries <= 0 {
		retries = 2
	}
	f, err := frame(req)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("dnssrv: no response from %s: %w", r.Server, lastErr)
			}
			return nil, err
		}
		resp, err := r.exchangeUDP(ctx, f[2:])
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.TC {
			return r.exchangeTCP(ctx, f)
		}
		return resp, nil
	}
	// The last attempt's socket timeout is clamped to ctx's remaining
	// budget, so it can fire a hair before ctx's own timer; report the
	// deadline, not the raw I/O timeout, once the budget is spent.
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return nil, fmt.Errorf("dnssrv: no response from %s: %w", r.Server, context.DeadlineExceeded)
	}
	return nil, fmt.Errorf("dnssrv: no response from %s: %w", r.Server, lastErr)
}

// frame encodes m behind room for the two-byte length that precedes a
// message on TCP: UDP sends frame[2:], TCP the whole frame.
func frame(m *Message) ([]byte, error) {
	f, err := m.appendWire(make([]byte, 2, 2+m.wireSize()))
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(f, uint16(len(f)-2))
	return f, nil
}

// Each UDP attempt waits on a reply channel and a timer, drawn from
// these pools. A channel goes back only after it delivered its reply:
// deliver, its one sender, dropped it from pending before sending, so
// nothing else holds it. A timer goes back stopped and drained.
var (
	replyChans sync.Pool // chan *Message, buffer 1
	timers     sync.Pool // *time.Timer
)

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timers.Put(t)
}

// exchangeUDP sends one attempt over the shared pipelined socket. The
// query is stamped in place with a freshly claimed ID (a retry is a new
// wire query, so a straggling answer to an old attempt can never satisfy
// a new one).
func (r *Resolver) exchangeUDP(ctx context.Context, pkt []byte) (*Message, error) {
	timeout := r.attemptTimeout(ctx)
	if timeout <= 0 {
		// ctx.Err() can still be nil for a hair after the deadline passes
		// (the timer hasn't fired); never return (nil, nil).
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.DeadlineExceeded
	}
	p, err := r.getPipe(ctx)
	if err != nil {
		return nil, err
	}
	id, ch, err := p.register(r)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(pkt, id)
	if _, err := p.conn.Write(pkt); err != nil {
		p.unregister(id, ch)
		r.dropPipe(p, err)
		return nil, err
	}
	timer := getTimer(timeout)
	defer putTimer(timer)
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, p.deathErr()
		}
		replyChans.Put(ch)
		return resp, nil
	case <-ctx.Done():
		p.unregister(id, ch)
		return nil, ctx.Err()
	case <-timer.C:
		p.unregister(id, ch)
		return nil, errQueryTimeout
	}
}

// exchangeTCP sends one framed query (see frame) on a fresh connection.
// The answer must carry the ID the frame holds, which a UDP attempt may
// have re-stamped.
func (r *Resolver) exchangeTCP(ctx context.Context, f []byte) (*Message, error) {
	timeout := r.attemptTimeout(ctx)
	if timeout <= 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.DeadlineExceeded
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", r.Server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(f); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	respBuf := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, respBuf); err != nil {
		return nil, err
	}
	resp, err := DecodeMessage(respBuf)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != binary.BigEndian.Uint16(f[2:]) {
		return nil, fmt.Errorf("dnssrv: TCP response ID mismatch")
	}
	return resp, nil
}

// Query performs a standard query for (name, type) and returns the answer
// records. NXDOMAIN and other failure rcodes are returned as *RcodeError.
func (r *Resolver) Query(ctx context.Context, name string, qtype uint16) ([]RR, error) {
	req := &Message{
		Header:    Header{ID: r.id(), RD: true},
		Questions: []Question{{Name: CanonicalName(name), Type: qtype, Class: ClassIN}},
	}
	resp, err := r.Exchange(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Header.Rcode != RcodeNoError {
		if berr := r.busyError("dns.query", resp); berr != nil {
			return nil, berr
		}
		return nil, &RcodeError{Name: name, Rcode: resp.Header.Rcode}
	}
	return resp.Answers, nil
}

// busyError recognizes a shed: REFUSED plus the server's retry-hint TXT
// record (see busyName) maps to the typed busy error so callers back off
// by the server's estimate rather than treating the shed as NXDOMAIN-like
// data. Plain REFUSED (non-authoritative name) returns nil.
func (r *Resolver) busyError(op string, resp *Message) error {
	if resp.Header.Rcode != RcodeRefused {
		return nil
	}
	for _, rr := range resp.Additional {
		if rr.Type != TypeTXT || CanonicalName(rr.Name) != busyName {
			continue
		}
		var after time.Duration
		for _, s := range rr.Txt {
			if v, ok := strings.CutPrefix(s, "retry-after-ms="); ok {
				if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
					after = time.Duration(ms) * time.Millisecond
				}
			}
		}
		return &core.ServerBusyError{Endpoint: r.Server, Op: op, RetryAfter: after}
	}
	return nil
}

// TransferZone performs an AXFR-style zone transfer over TCP and returns
// every record in the zone enclosing name.
func (r *Resolver) TransferZone(ctx context.Context, name string) ([]RR, error) {
	req := &Message{
		Header:    Header{ID: r.id()},
		Questions: []Question{{Name: CanonicalName(name), Type: TypeAXFR, Class: ClassIN}},
	}
	f, err := frame(req)
	if err != nil {
		return nil, err
	}
	resp, err := r.exchangeTCP(ctx, f)
	if err != nil {
		return nil, err
	}
	if resp.Header.Rcode != RcodeNoError {
		if berr := r.busyError("dns.axfr", resp); berr != nil {
			return nil, berr
		}
		return nil, &RcodeError{Name: name, Rcode: resp.Header.Rcode}
	}
	return resp.Answers, nil
}

// Package rpc is the wire substrate shared by the Jini registrar and HDNS
// protocols: length-delimited binary frames over TCP, with request/response
// multiplexing, credit-based flow control, native batch frames, per-connection
// state, and server-initiated push frames (used for remote event delivery).
package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/obs"
	"gondi/internal/retry"
)

// Wire-level metrics, shared by every protocol built on this substrate
// (Jini registrar, HDNS). Latency is observed per method so slow RPCs are
// distinguishable from chatty ones.
var (
	mDials = obs.Default.Counter("gondi_rpc_dials_total",
		"RPC connections established.")
	mDialErrs = obs.Default.Counter("gondi_rpc_dial_errors_total",
		"RPC connection attempts that failed after retries.")
	mConns = obs.Default.Gauge("gondi_rpc_conns_open",
		"RPC client connections currently open.")
	mConnLost = obs.Default.Counter("gondi_rpc_conns_lost_total",
		"RPC connections terminated by the peer or the network.")
	mInflight = obs.Default.Gauge("gondi_rpc_inflight",
		"RPC calls currently in flight (credits held) across all clients.")
	mCreditStalls = obs.Default.Counter("gondi_rpc_credit_stalls_total",
		"RPC calls that had to wait for a flow-control credit.")
	mBusy = obs.Default.Counter("gondi_rpc_busy_total",
		"RPC calls shed by a server's in-flight window.")
	mBatchSize = obs.Default.Histogram("gondi_rpc_batch_size_items",
		"RPC batch sizes; recorded as 1µs per item, so p50 in µs is the median batch size.")
	mBatchCalls = obs.Default.Counter("gondi_rpc_batch_calls_total",
		"RPC batch round-trips issued.")
	mBatchLat = obs.Default.Histogram("gondi_rpc_batch_seconds",
		"RPC batch round-trip latency.")
	mBatchErrs = obs.Default.Counter("gondi_rpc_batch_errors_total",
		"RPC batch round-trips that failed.")
)

// callMetrics holds one method's labelled instruments. A labelled
// registry lookup renders and escapes its labels on every call, so
// Client.Call resolves the three once per method and keeps the handles.
type callMetrics struct {
	calls, errs *obs.Counter
	lat         *obs.Histogram
}

var callMetricsByMethod sync.Map // method string -> *callMetrics

func metricsFor(method string) *callMetrics {
	if m, ok := callMetricsByMethod.Load(method); ok {
		return m.(*callMetrics)
	}
	label := obs.Label{K: "method", V: method}
	m, _ := callMetricsByMethod.LoadOrStore(method, &callMetrics{
		calls: obs.Default.Counter("gondi_rpc_calls_total",
			"RPC round-trips issued, by method.", label),
		errs: obs.Default.Counter("gondi_rpc_call_errors_total",
			"RPC round-trips that failed, by method.", label),
		lat: obs.Default.Histogram("gondi_rpc_call_seconds",
			"RPC round-trip latency, by method.", label),
	})
	return m.(*callMetrics)
}

// Frame kinds.
const (
	kindRequest       = 1
	kindResponse      = 2
	kindPush          = 3
	kindCredit        = 4 // server→client: ID carries the advertised window
	kindBatchRequest  = 5
	kindBatchResponse = 6
)

// maxFrame bounds a single frame to guard against corrupt length prefixes.
const maxFrame = 64 << 20

// hardCapRetryAfter is the backoff hint attached to hard-cap sheds. The
// hard cap only trips when a client overruns twice its advertised window
// (misbehaving or abandoning calls wholesale), so a flat hint suffices;
// admission-control sheds carry a measured drain estimate instead.
const hardCapRetryAfter = 50 * time.Millisecond

// Flow-control windows. The server advertises its window in a credit
// frame at accept time; until that arrives the client restrains itself to
// the conservative default. The server enforces twice what it advertises:
// the slack absorbs calls whose callers abandoned them (their credit went
// back to the client immediately, but the server is still finishing the
// op), so well-behaved clients never see codeBusy.
const (
	defaultClientWindow = 64
	defaultServerWindow = 256
)

// frame is the unit of transmission. Method/Err/Body are byte slices so a
// decoded frame can alias the read buffer (zero-copy); see codec.go.
type frame struct {
	Kind   uint8
	ID     uint64
	Code   uint8
	Method []byte
	Err    []byte
	Body   []byte
	Items  []frameItem // batch kinds only
}

// ErrConnClosed is returned by calls whose connection the peer (or the
// network) terminated.
var ErrConnClosed = errors.New("rpc: connection closed")

// ErrClientClosed is returned by calls — including calls already in
// flight — when the local side called Close. It is distinct from
// ErrConnClosed so callers can tell an orderly local shutdown from a torn
// connection.
var ErrClientClosed = errors.New("rpc: client closed")

// RemoteError is a failure answered by a server handler. Msg is the
// handler's text, for display only; Unwrap yields the core error the
// response's status stands for (nil for an internal failure), so callers
// classify with errors.Is/errors.As instead of comparing Msg.
type RemoteError struct {
	Method string
	Msg    string
	err    error
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

func (e *RemoteError) Unwrap() error { return e.err }

// Handler processes one request on a server. conn identifies the calling
// connection and supports Push for event delivery; body is the request
// payload, and the returned bytes are the response payload.
type Handler func(conn *ServerConn, body []byte) ([]byte, error)

// Server accepts connections and dispatches method handlers.
type Server struct {
	lis      net.Listener
	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[*ServerConn]struct{}
	onClose  []func(*ServerConn)
	window   int
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server listening on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewServer(addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		lis:      lis,
		handlers: map[string]Handler{},
		conns:    map[*ServerConn]struct{}{},
		window:   defaultServerWindow,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// setWindow changes the per-connection in-flight window advertised to
// clients that connect after the call (tests).
func (s *Server) setWindow(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.window = n
	s.mu.Unlock()
}

// Handle registers a method handler. Must be called before clients invoke
// the method; registration is safe at any time.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// OnConnClose registers a callback invoked when a client connection ends
// (used to drop event subscriptions and expire session state).
func (s *Server) OnConnClose(f func(*ServerConn)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onClose = append(s.onClose, f)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		window := s.window
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		sc := &ServerConn{srv: s, conn: conn, vals: map[string]any{}, window: window}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(sc)
	}
}

// handler returns method's handler; an unregistered method gets one that
// fails internal.
func (s *Server) handler(method []byte) Handler {
	s.mu.Lock()
	h := s.handlers[string(method)]
	s.mu.Unlock()
	if h == nil {
		err := errors.New("unknown method " + string(method))
		return func(*ServerConn, []byte) ([]byte, error) { return nil, err }
	}
	return h
}

func (s *Server) serveConn(sc *ServerConn) {
	defer s.wg.Done()
	defer func() {
		sc.conn.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		hooks := make([]func(*ServerConn), len(s.onClose))
		copy(hooks, s.onClose)
		s.mu.Unlock()
		for _, h := range hooks {
			h(sc)
		}
	}()
	// Advertise the flow-control window before any responses.
	if err := writeFrame(sc.conn, &sc.writeMu, &frame{Kind: kindCredit, ID: uint64(sc.window)}); err != nil {
		return
	}
	hardCap := int64(2 * sc.window)
	fr := frameReader{r: sc.conn}
	for {
		f, err := fr.next()
		if err != nil {
			return
		}
		switch f.Kind {
		case kindRequest:
			if sc.inflight.Load() >= hardCap {
				mBusy.Inc()
				_ = writeFrame(sc.conn, &sc.writeMu, &frame{Kind: kindResponse, ID: f.ID, Code: codeBusy, Err: hardCapBusy})
				continue
			}
			// The decode buffer is reused by the next read: copy what the
			// handler goroutine keeps.
			h := s.handler(f.Method)
			id := f.ID
			body := append([]byte(nil), f.Body...)
			sc.inflight.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer sc.inflight.Add(-1)
				resp := &frame{Kind: kindResponse, ID: id}
				resp.Code, resp.Body, resp.Err = serve(sc, h, body)
				_ = writeFrame(sc.conn, &sc.writeMu, resp)
			}()
		case kindBatchRequest:
			// A batch holds one credit and runs as one unit; items execute
			// sequentially so responses preserve submission order.
			if sc.inflight.Load() >= hardCap {
				mBusy.Inc()
				_ = writeFrame(sc.conn, &sc.writeMu, &frame{Kind: kindBatchResponse, ID: f.ID, Code: codeBusy, Err: hardCapBusy})
				continue
			}
			mBatchSize.Observe(time.Duration(len(f.Items)) * time.Microsecond)
			id := f.ID
			items := make([]frameItem, len(f.Items))
			for i, it := range f.Items {
				items[i] = frameItem{
					Method: append([]byte(nil), it.Method...),
					Body:   append([]byte(nil), it.Body...),
				}
			}
			sc.inflight.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer sc.inflight.Add(-1)
				resp := &frame{Kind: kindBatchResponse, ID: id, Items: make([]frameItem, len(items))}
				for i := range items {
					out := &resp.Items[i]
					out.Code, out.Body, out.Err = serve(sc, s.handler(items[i].Method), items[i].Body)
				}
				_ = writeFrame(sc.conn, &sc.writeMu, resp)
			}()
		default:
			// Credit/push frames are client-bound; ignore strays.
		}
	}
}

// Close stops the listener and closes all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*ServerConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.lis.Close()
	for _, c := range conns {
		c.conn.Close()
	}
	s.wg.Wait()
	return err
}

// ServerConn is the server's view of one client connection.
type ServerConn struct {
	srv      *Server
	conn     net.Conn
	writeMu  sync.Mutex
	valsMu   sync.Mutex
	vals     map[string]any
	window   int
	inflight atomic.Int64
}

// Push sends an unsolicited frame to the client (event delivery).
func (sc *ServerConn) Push(method string, body []byte) error {
	return writeFrame(sc.conn, &sc.writeMu, &frame{Kind: kindPush, Method: []byte(method), Body: body})
}

// RemoteAddr returns the peer address.
func (sc *ServerConn) RemoteAddr() string { return sc.conn.RemoteAddr().String() }

// Set stores connection-scoped state (e.g. authentication principal,
// subscription registry).
func (sc *ServerConn) Set(key string, v any) {
	sc.valsMu.Lock()
	defer sc.valsMu.Unlock()
	sc.vals[key] = v
}

// Get retrieves connection-scoped state.
func (sc *ServerConn) Get(key string) (any, bool) {
	sc.valsMu.Lock()
	defer sc.valsMu.Unlock()
	v, ok := sc.vals[key]
	return v, ok
}

// creditGate bounds the calls a client may have in flight on one
// connection. Credits are acquired before the request is written and
// returned when its pending entry is removed — by the response, by ctx
// cancellation, or by a failed write — so exactly one release follows
// every successful acquire.
type creditGate struct {
	mu      sync.Mutex
	limit   int
	used    int
	waiters int
	waitCh  chan struct{}
	closed  bool
	err     error
}

func newCreditGate(limit int) *creditGate {
	return &creditGate{limit: limit, waitCh: make(chan struct{})}
}

// acquire blocks until a credit is free, ctx ends, or the gate closes.
func (g *creditGate) acquire(ctx context.Context) error {
	stalled := false
	g.mu.Lock()
	for {
		if g.closed {
			err := g.err
			g.mu.Unlock()
			return err
		}
		if g.used < g.limit {
			g.used++
			g.mu.Unlock()
			mInflight.Add(1)
			return nil
		}
		if !stalled {
			stalled = true
			mCreditStalls.Inc()
		}
		ch := g.waitCh
		g.waiters++
		g.mu.Unlock()
		select {
		case <-ctx.Done():
			g.mu.Lock()
			g.waiters--
			g.mu.Unlock()
			return ctx.Err()
		case <-ch:
			g.mu.Lock()
			g.waiters--
		}
	}
}

// release returns one credit and wakes waiters.
func (g *creditGate) release() {
	g.mu.Lock()
	if g.used > 0 {
		g.used--
	}
	g.broadcastLocked()
	g.mu.Unlock()
	mInflight.Add(-1)
}

// setLimit applies a server-advertised window.
func (g *creditGate) setLimit(n int) {
	if n < 1 {
		n = 1
	}
	g.mu.Lock()
	g.limit = n
	g.broadcastLocked()
	g.mu.Unlock()
}

// closeGate fails current and future acquirers with err.
func (g *creditGate) closeGate(err error) {
	g.mu.Lock()
	g.closed = true
	g.err = err
	g.broadcastLocked()
	g.mu.Unlock()
}

func (g *creditGate) broadcastLocked() {
	if g.waiters == 0 {
		return
	}
	close(g.waitCh)
	g.waitCh = make(chan struct{})
}

// result is a response delivered to a waiting call, with every field
// copied out of the read buffer.
type result struct {
	code  uint8
	err   string
	body  []byte
	items []itemResult // batch responses
}

type itemResult struct {
	code uint8
	err  string
	body []byte
}

// Client is a multiplexing RPC client. Calls are context-first: the ctx
// deadline becomes a real write deadline on the connection and bounds the
// wait for the response; cancellation aborts an in-flight call
// immediately with ctx.Err() and returns its flow-control credit.
type Client struct {
	addr     string
	br       *breaker.Breaker
	conn     net.Conn
	credits  *creditGate
	writeMu  sync.Mutex
	mu       sync.Mutex
	pending  map[uint64]chan result
	nextID   uint64
	onPush   func(method string, body []byte)
	closed   bool
	closeErr error         // ErrClientClosed or ErrConnClosed once closed
	done     chan struct{} // closed when the readLoop has torn down
	timeout  time.Duration
}

// dialPolicy retries transient connect failures (a registrar restarting
// behind a stable address) with capped exponential backoff.
var dialPolicy = retry.Policy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}

// Dial connects to a server. timeout applies to connect and, for calls
// whose ctx carries no deadline, to each call (0 means 10s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialContext(ctx, addr, timeout)
}

// DialContext connects to a server, bounded by ctx. defaultTimeout (0 =
// 10s) applies to calls whose own ctx has no deadline. Transient connect
// errors are retried with backoff within ctx's budget.
//
// Dials are gated by the endpoint's process-wide circuit breaker: once an
// endpoint has failed repeatedly, DialContext fast-fails with
// breaker.ErrOpen (no network activity) until the cooldown admits a
// probe. Transport failures on established clients feed the same breaker,
// so a mid-flight connection loss also counts against the endpoint.
func DialContext(ctx context.Context, addr string, defaultTimeout time.Duration) (*Client, error) {
	if defaultTimeout <= 0 {
		defaultTimeout = 10 * time.Second
	}
	br := breaker.For(addr)
	if err := br.Allow(); err != nil {
		mDialErrs.Inc()
		return nil, err
	}
	var conn net.Conn
	err := retry.Do(ctx, dialPolicy, func() error {
		var d net.Dialer
		var derr error
		conn, derr = d.DialContext(ctx, "tcp", addr)
		return derr
	})
	if err != nil {
		mDialErrs.Inc()
		// Caller cancellation is not endpoint health: settle the Allow
		// without moving the breaker either way.
		if ctx.Err() != nil {
			br.Cancel()
		} else {
			br.Record(true)
		}
		return nil, err
	}
	br.Record(false)
	mDials.Inc()
	mConns.Add(1)
	c := &Client{
		addr:    addr,
		br:      br,
		conn:    conn,
		credits: newCreditGate(defaultClientWindow),
		pending: map[uint64]chan result{},
		timeout: defaultTimeout,
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Addr returns the endpoint this client dialed ("" for clients made by
// tests around raw conns).
func (c *Client) Addr() string { return c.addr }

// OnPush installs the handler for server push frames. Install before
// issuing calls that create subscriptions.
func (c *Client) OnPush(f func(method string, body []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPush = f
}

// deliver hands a decoded response to its waiting call. Removing the
// pending entry transfers the call's credit back: the remover releases.
func (c *Client) deliver(id uint64, res result) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if !ok {
		// The caller abandoned the call and already took its credit back.
		return
	}
	c.credits.release()
	ch <- res
}

// readLoop drains response, push, and credit frames until the connection
// dies, then fails every pending call and closes c.done. It exits on any
// read error, including the conn.Close issued by Close, so it can never
// leak.
func (c *Client) readLoop() {
	fr := frameReader{r: c.conn}
	for {
		f, err := fr.next()
		if err != nil {
			c.mu.Lock()
			if !c.closed {
				// The peer (or network) ended the connection.
				c.closed = true
				c.closeErr = ErrConnClosed
				mConnLost.Inc()
				if c.br != nil {
					c.br.Record(true)
				}
			}
			closeErr := c.closeErr
			n := len(c.pending)
			c.pending = nil // waiters wake via c.done
			c.mu.Unlock()
			// Pending calls held credits that will never be released
			// through deliver; square the gauge before poisoning the gate.
			if n > 0 {
				mInflight.Add(int64(-n))
			}
			c.credits.closeGate(closeErr)
			mConns.Add(-1) // readLoop runs once per dialed conn
			close(c.done)
			return
		}
		switch f.Kind {
		case kindResponse:
			res := result{code: f.Code, err: string(f.Err)}
			if len(f.Body) > 0 {
				res.body = append([]byte(nil), f.Body...)
			}
			c.deliver(f.ID, res)
		case kindBatchResponse:
			res := result{code: f.Code, err: string(f.Err), items: make([]itemResult, len(f.Items))}
			for i, it := range f.Items {
				res.items[i] = itemResult{code: it.Code, err: string(it.Err)}
				if len(it.Body) > 0 {
					res.items[i].body = append([]byte(nil), it.Body...)
				}
			}
			c.deliver(f.ID, res)
		case kindCredit:
			c.credits.setLimit(int(f.ID))
		case kindPush:
			c.mu.Lock()
			h := c.onPush
			c.mu.Unlock()
			if h != nil {
				h(string(f.Method), append([]byte(nil), f.Body...))
			}
		}
	}
}

// abandon removes a call's pending entry, returning its credit if the
// entry was still present (a racing response may have taken it first).
func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	_, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		c.credits.release()
	}
}

// register assigns an ID and pending channel for one call. The caller
// must hold a credit.
func (c *Client) register() (uint64, chan result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		err := c.closeErr
		if err == nil {
			err = ErrClientClosed
		}
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan result, 1)
	c.pending[id] = ch
	return id, ch, nil
}

// Call sends a request and waits for the response, ctx's end, or client
// shutdown, whichever comes first. A ctx without a deadline gets the
// client's default timeout. Calls beyond the connection's credit window
// block until a credit frees (credit stalls are counted in
// gondi_rpc_credit_stalls_total); a server that sheds the request returns
// *core.ServerBusyError.
func (c *Client) Call(ctx context.Context, method string, body []byte) (_ []byte, rerr error) {
	if obs.On() {
		start := time.Now()
		obs.AddWireRT(ctx)
		m := metricsFor(method)
		defer func() {
			m.calls.Inc()
			m.lat.Since(start)
			if rerr != nil {
				m.errs.Inc()
			}
		}()
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req := frame{Kind: kindRequest, Method: []byte(method), Body: body}
	res, err := c.roundTrip(ctx, method, &req)
	if err != nil {
		return nil, err
	}
	if res.code != codeOK {
		return nil, c.decodeErr(method, res.code, res.err)
	}
	return res.body, nil
}

// BatchItem is one operation in a CallBatch.
type BatchItem struct {
	Method string
	Body   []byte
}

// BatchResult is one operation's outcome from CallBatch.
type BatchResult struct {
	Body []byte
	Err  error
}

// CallBatch sends every item in one batch frame, holding one flow-control
// credit, and returns one result per item in submission order. The server
// runs the items sequentially, so batched writes observe the same
// ordering a pipelined caller would. Per-item failures come back in each
// BatchResult; the call-level error is reserved for transport failures,
// ctx expiry, and whole-batch shedding (*core.ServerBusyError).
func (c *Client) CallBatch(ctx context.Context, items []BatchItem) (_ []BatchResult, rerr error) {
	if len(items) == 0 {
		return nil, nil
	}
	if obs.On() {
		start := time.Now()
		obs.AddWireRT(ctx)
		obs.AddBatch(ctx, len(items))
		mBatchSize.Observe(time.Duration(len(items)) * time.Microsecond)
		defer func() {
			mBatchCalls.Inc()
			mBatchLat.Since(start)
			if rerr != nil {
				mBatchErrs.Inc()
			}
		}()
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req := frame{Kind: kindBatchRequest, Items: make([]frameItem, len(items))}
	for i, it := range items {
		req.Items[i] = frameItem{Method: []byte(it.Method), Body: it.Body}
	}
	res, err := c.roundTrip(ctx, "batch", &req)
	if err != nil {
		return nil, err
	}
	if res.code != codeOK {
		return nil, c.decodeErr("batch", res.code, res.err)
	}
	if len(res.items) != len(items) {
		return nil, fmt.Errorf("rpc: batch answered %d of %d items", len(res.items), len(items))
	}
	out := make([]BatchResult, len(items))
	for i, it := range res.items {
		if it.code != codeOK {
			out[i].Err = c.decodeErr(items[i].Method, it.code, it.err)
			continue
		}
		out[i].Body = it.body
	}
	return out, nil
}

// roundTrip runs the shared wire exchange: acquire a credit, register a
// pending entry, stamp the frame ID, write, and wait. Exactly one of the
// response path (deliver) and the abandonment paths releases the credit.
func (c *Client) roundTrip(ctx context.Context, method string, req *frame) (result, error) {
	if err := c.credits.acquire(ctx); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return result{}, fmt.Errorf("rpc: %s: %w", method, err)
		}
		return result{}, err
	}
	id, ch, err := c.register()
	if err != nil {
		c.credits.release()
		return result{}, err
	}
	req.ID = id

	// The ctx deadline is a real I/O deadline for the request write: a
	// peer that has stopped reading cannot wedge the sender past it.
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(dl)
	}
	err = writeFrame(c.conn, &c.writeMu, req)
	_ = c.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		c.abandon(id)
		c.mu.Lock()
		closeErr := c.closeErr
		c.mu.Unlock()
		if cerr := ctx.Err(); cerr != nil {
			return result{}, fmt.Errorf("rpc: %s: %w", method, cerr)
		}
		// The write deadline mirrors ctx's; the net poller can see the
		// expiry before ctx's own timer fires.
		if _, hasDL := ctx.Deadline(); hasDL && errors.Is(err, os.ErrDeadlineExceeded) {
			return result{}, fmt.Errorf("rpc: %s: %w", method, context.DeadlineExceeded)
		}
		if closeErr != nil {
			return result{}, closeErr
		}
		return result{}, err
	}
	select {
	case res := <-ch:
		// Any response — even a handler error or busy shed — proves the
		// endpoint is alive. This settles the call's breaker outcome
		// exactly once.
		if c.br != nil {
			c.br.Record(false)
		}
		return res, nil
	case <-c.done:
		c.mu.Lock()
		err := c.closeErr
		c.mu.Unlock()
		// A response may have raced with teardown.
		select {
		case res := <-ch:
			return res, nil
		default:
		}
		if err == nil {
			err = ErrConnClosed
		}
		return result{}, err
	case <-ctx.Done():
		// Remove the pending entry and return the credit immediately: an
		// abandoned call must not pin the window until its response
		// straggles in (or never does).
		c.abandon(id)
		return result{}, fmt.Errorf("rpc: %s: %w", method, ctx.Err())
	}
}

// Close shuts the connection down. Pending calls fail with
// ErrClientClosed; the read loop exits once the kernel aborts its blocked
// read.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.closeErr = ErrClientClosed
	c.mu.Unlock()
	return c.conn.Close()
}

// Closed reports whether the connection has terminated.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Done returns a channel closed when the client's read loop has fully
// torn down (tests use it to prove the goroutine exits).
func (c *Client) Done() <-chan struct{} { return c.done }

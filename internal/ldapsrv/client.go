package ldapsrv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/core"
	"gondi/internal/filter"
	"gondi/internal/ldapsrv/ber"
	"gondi/internal/obs"
	"gondi/internal/retry"
)

// Conn is an LDAP client connection. Requests are pipelined: concurrent
// operations interleave on the wire, correlated back to their callers by
// LDAP messageID, instead of serializing lockstep behind one mutex.
type Conn struct {
	addr    string
	mu      sync.Mutex
	conn    net.Conn
	br      *breaker.Breaker
	nextID  int64
	dead    bool
	err     error
	pending map[int64]*ldapCall

	wmu  sync.Mutex    // serializes request writes
	done chan struct{} // closed when the conn dies
}

// ldapCall is one in-flight operation awaiting its response messages.
type ldapCall struct {
	ch   chan []byte   // response ops for this messageID, in order
	quit chan struct{} // closed when the caller stops listening
}

// Dead reports whether the connection has failed at the transport level;
// pooled providers use it to discard dead connections.
func (c *Conn) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Dial connects to an LDAP server.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to an LDAP server, bounded by ctx; transient
// connect failures are retried with backoff within ctx's budget. Dials
// are gated by the server's process-wide circuit breaker — a repeatedly
// unreachable server fast-fails with breaker.ErrOpen until its cooldown
// admits a probe — and transport failures on the live connection feed the
// same breaker.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	br := breaker.For(addr)
	if err := br.Allow(); err != nil {
		return nil, err
	}
	var c net.Conn
	err := retry.Do(ctx, retry.Policy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}, func() error {
		var d net.Dialer
		var derr error
		c, derr = d.DialContext(ctx, "tcp", addr)
		return derr
	})
	if err != nil {
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
	cc := &Conn{
		addr:    addr,
		conn:    c,
		br:      br,
		pending: map[int64]*ldapCall{},
		done:    make(chan struct{}),
	}
	go cc.readLoop()
	return cc, nil
}

// Close sends an unbind request and closes the connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	dead := c.dead
	c.mu.Unlock()
	if !dead {
		unbind := encodeMessage(id, func(b *ber.Builder) { b.Str(ber.ClassApplication|AppUnbindRequest, "") })
		c.wmu.Lock()
		_, _ = c.conn.Write(unbind)
		c.wmu.Unlock()
	}
	c.fail(errors.New("ldapsrv: connection closed"))
	return nil
}

// fail marks the connection dead exactly once: the socket closes, and
// every in-flight call observes the death via the done channel — a
// severed connection fails all pipelined calls typed, never hangs them.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.err = err
	c.pending = map[int64]*ldapCall{}
	c.mu.Unlock()
	c.conn.Close()
	close(c.done)
}

// deathErr reports why the connection died.
func (c *Conn) deathErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errors.New("ldapsrv: connection closed")
}

// readLoop demultiplexes response messages to their in-flight calls by
// messageID, each op a slice of the frame it came in. Responses for
// abandoned messageIDs are dropped (the old "stale response from an
// abandoned op" skip, now a map miss).
func (c *Conn) readLoop() {
	fr := &frameReader{r: c.conn}
	for {
		msg, err := fr.read()
		if err != nil {
			c.fail(err)
			return
		}
		id, respOp, err := splitMessage(msg)
		if err != nil {
			// The BER stream is unframed beyond recovery.
			c.fail(err)
			return
		}
		c.mu.Lock()
		call := c.pending[id]
		c.mu.Unlock()
		if call == nil {
			continue
		}
		select {
		case call.ch <- respOp:
		case <-call.quit:
		}
	}
}

// roundTrip sends one request, the protocol op appendOp appends, and
// reads responses until the terminating tag; the caller receives all
// response ops in order, each whole and in place in its frame. ctx's
// deadline is applied to the socket for the whole exchange, so a stalled
// server cannot wedge the caller past its budget.
func (c *Conn) roundTrip(ctx context.Context, appendOp func(*ber.Builder), terminator byte) (_ [][]byte, rerr error) {
	if obs.On() {
		start := time.Now()
		obs.AddWireRT(ctx)
		defer func() {
			obs.Default.Counter("gondi_ldap_roundtrips_total",
				"LDAP protocol round-trips issued.").Inc()
			obs.Default.Histogram("gondi_ldap_roundtrip_seconds",
				"LDAP round-trip latency.").Since(start)
			if rerr != nil {
				obs.Default.Counter("gondi_ldap_roundtrip_errors_total",
					"LDAP round-trips that failed.").Inc()
			}
		}()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.dead {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errors.New("ldapsrv: connection closed")
		}
		return nil, err
	}
	c.nextID++
	id := c.nextID
	call := &ldapCall{ch: make(chan []byte, 16), quit: make(chan struct{})}
	c.pending[id] = call
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		close(call.quit)
	}()
	wire := encodeMessage(id, appendOp)
	c.wmu.Lock()
	if dl, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(dl)
	}
	_, err := c.conn.Write(wire)
	if _, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		c.record(wrapCtx(ctx, err))
		return nil, wrapCtx(ctx, err)
	}
	// The caller's deadline is enforced by select, not a socket deadline:
	// the socket is shared by every pipelined call, and one caller's
	// budget must not sever another's exchange.
	var out [][]byte
	for {
		select {
		case respOp := <-call.ch:
			out = append(out, respOp)
			if opNum(respOp) == terminator {
				c.record(nil)
				return out, nil
			}
		case <-ctx.Done():
			c.record(ctx.Err())
			return nil, ctx.Err()
		case <-c.done:
			err := c.deathErr()
			c.record(wrapCtx(ctx, err))
			return nil, wrapCtx(ctx, err)
		}
	}
}

// record feeds a round-trip outcome to the endpoint breaker, exactly
// once per call. Context cancellation is the caller's budget, not server
// health, and is not charged.
func (c *Conn) record(err error) {
	if c.br == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.br.Cancel()
		return
	}
	c.br.Record(err != nil)
}

// wrapCtx substitutes ctx.Err() for an I/O error caused by the ctx
// deadline expiring (the socket reports a timeout, the caller wants the
// context error). The socket deadline mirrors ctx's exactly, so the net
// poller can observe the expiry a hair before ctx's own timer fires; a
// timeout error with a ctx deadline set is therefore always the
// deadline, even while ctx.Err() still reads nil.
func wrapCtx(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if _, hasDL := ctx.Deadline(); hasDL && errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// exec sends the request appendOp appends and reads the result that
// closes it.
func (c *Conn) exec(ctx context.Context, appendOp func(*ber.Builder), terminator byte) (Result, error) {
	resps, err := c.roundTrip(ctx, appendOp, terminator)
	if err != nil {
		return Result{}, err
	}
	return readResult(resps[len(resps)-1])
}

// result types the outcome of op: err, if the exchange failed; else for
// the result that closed it, busy is the *core.ServerBusyError every wire
// client returns for a shed, with the server's retry hint (0 when
// absent), and any other failure is a *ResultError.
func (c *Conn) result(op string, r Result, err error) error {
	if err != nil {
		return err
	}
	switch r.Code {
	case ResultSuccess:
		return nil
	case ResultBusy:
		ms, _ := strconv.ParseInt(strings.TrimPrefix(r.Message, retryAfterPrefix), 10, 64)
		return &core.ServerBusyError{Endpoint: c.addr, Op: op, RetryAfter: time.Duration(max(ms, 0)) * time.Millisecond}
	}
	return &ResultError{Op: op, Result: r}
}

// Bind performs a simple bind; empty dn and password is an anonymous bind.
func (c *Conn) Bind(ctx context.Context, dn, password string) error {
	r, err := c.exec(ctx, func(b *ber.Builder) { appendBindRequest(b, dn, password) }, AppBindResponse)
	return c.result("bind", r, err)
}

// SearchOptions tunes a search.
type SearchOptions struct {
	Scope     int // ScopeBaseObject, ScopeSingleLevel, ScopeWholeSubtree
	SizeLimit int
	// TimeLimit bounds the server-side search (rounded up to whole
	// seconds on the wire, RFC 4511); 0 means unlimited. The server
	// answers timeLimitExceeded with partial results when it fires.
	TimeLimit time.Duration
	TypesOnly bool
	Attrs     []string
}

// Search runs a filter search and returns matching entries. A
// sizeLimitExceeded result returns the partial entries plus a
// *ResultError.
func (c *Conn) Search(ctx context.Context, baseDN, filterStr string, opts *SearchOptions) ([]Entry, error) {
	if opts == nil {
		opts = &SearchOptions{Scope: ScopeWholeSubtree}
	}
	f, err := filter.Parse(filterStr)
	if err != nil {
		return nil, err
	}
	q := searchRequest{
		baseDN:    baseDN,
		scope:     int64(opts.Scope),
		sizeLimit: int64(opts.SizeLimit),
		timeLimit: timeLimitSeconds(opts.TimeLimit),
		typesOnly: opts.TypesOnly,
		filter:    f,
		attrs:     opts.Attrs,
	}
	resps, err := c.roundTrip(ctx, func(b *ber.Builder) { appendSearchRequest(b, &q) }, AppSearchDone)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if len(resps) > 1 {
		entries = make([]Entry, 0, len(resps)-1)
	}
	for _, r := range resps[:len(resps)-1] {
		if opNum(r) != AppSearchEntry {
			continue
		}
		e, err := readEntry(r)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	r, err := readResult(resps[len(resps)-1])
	return entries, c.result("search", r, err)
}

// timeLimitSeconds rounds a duration up to whole seconds for the wire.
func timeLimitSeconds(d time.Duration) int64 {
	return int64((max(d, 0) + time.Second - 1) / time.Second)
}

// Add inserts an entry.
func (c *Conn) Add(ctx context.Context, dn string, attrs []EntryAttr) error {
	r, err := c.exec(ctx, func(b *ber.Builder) { appendAddRequest(b, dn, attrs) }, AppAddResponse)
	return c.result("add", r, err)
}

// Delete removes a leaf entry.
func (c *Conn) Delete(ctx context.Context, dn string) error {
	r, err := c.exec(ctx, func(b *ber.Builder) { appendDelRequest(b, dn) }, AppDelResponse)
	return c.result("delete", r, err)
}

// Modify applies attribute changes.
func (c *Conn) Modify(ctx context.Context, dn string, changes []ModifyChange) error {
	r, err := c.exec(ctx, func(b *ber.Builder) { appendModifyRequest(b, dn, changes) }, AppModifyResponse)
	return c.result("modify", r, err)
}

// ModifyDN renames an entry in place.
func (c *Conn) ModifyDN(ctx context.Context, dn, newRDN string, deleteOldRDN bool) error {
	r, err := c.exec(ctx, func(b *ber.Builder) { appendModifyDNRequest(b, dn, newRDN, deleteOldRDN) }, AppModifyDNResponse)
	return c.result("modifyDN", r, err)
}

// Compare tests an attribute assertion; it returns true on compareTrue.
func (c *Conn) Compare(ctx context.Context, dn, attrType, value string) (bool, error) {
	r, err := c.exec(ctx, func(b *ber.Builder) { appendCompareRequest(b, dn, attrType, value) }, AppCompareResponse)
	if err == nil && (r.Code == ResultCompareTrue || r.Code == ResultCompareFalse) {
		return r.Code == ResultCompareTrue, nil
	}
	return false, c.result("compare", r, err)
}

// String diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("Entry{%s, %d attrs}", e.DN, len(e.Attrs))
}

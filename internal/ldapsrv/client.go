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
	ch   chan *ber.Packet // response ops for this messageID, in order
	quit chan struct{}    // closed when the caller stops listening
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
		unbind := &ber.Packet{Tag: ber.ClassApplication | AppUnbindRequest}
		c.wmu.Lock()
		_, _ = c.conn.Write(WrapMessage(id, unbind).Encode())
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
// messageID. Responses for abandoned messageIDs are dropped (the old
// "stale response from an abandoned op" skip, now a map miss).
func (c *Conn) readLoop() {
	for {
		msg, _, err := readBER(c.conn)
		if err != nil {
			c.fail(err)
			return
		}
		id, respOp, err := UnwrapMessage(msg)
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

// roundTrip sends one request and reads responses until the terminating
// tag; the caller receives all response ops in order. ctx's deadline is
// applied to the socket for the whole exchange, so a stalled server
// cannot wedge the caller past its budget.
func (c *Conn) roundTrip(ctx context.Context, op *ber.Packet, terminator byte) (_ []*ber.Packet, rerr error) {
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
	call := &ldapCall{ch: make(chan *ber.Packet, 16), quit: make(chan struct{})}
	c.pending[id] = call
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		close(call.quit)
	}()
	wire := WrapMessage(id, op).Encode()
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
	var out []*ber.Packet
	for {
		select {
		case respOp := <-call.ch:
			out = append(out, respOp)
			if respOp.TagNumber() == terminator {
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

// resultFrom decodes the result that closes op (see result).
func (c *Conn) resultFrom(op string, p *ber.Packet) error {
	r, err := DecodeResult(p)
	if err != nil {
		return err
	}
	return c.result(op, r)
}

// result types the result that closes op: busy is the *core.ServerBusyError
// every wire client returns for a shed, with the server's retry hint (0
// when absent); any other failure is a *ResultError.
func (c *Conn) result(op string, r Result) error {
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
	op := ber.NewApplication(AppBindRequest, true,
		ber.NewInteger(3), // LDAPv3
		ber.NewOctetString(dn),
		ber.NewContextString(0, password),
	)
	resps, err := c.roundTrip(ctx, op, AppBindResponse)
	if err != nil {
		return err
	}
	return c.resultFrom("bind", resps[len(resps)-1])
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
	fp, err := EncodeFilter(f)
	if err != nil {
		return nil, err
	}
	attrList := ber.NewSequence()
	for _, a := range opts.Attrs {
		attrList.AddChild(ber.NewOctetString(a))
	}
	op := ber.NewApplication(AppSearchRequest, true,
		ber.NewOctetString(baseDN),
		ber.NewEnumerated(int64(opts.Scope)),
		ber.NewEnumerated(0), // neverDerefAliases
		ber.NewInteger(int64(opts.SizeLimit)),
		ber.NewInteger(timeLimitSeconds(opts.TimeLimit)),
		ber.NewBoolean(opts.TypesOnly),
		fp,
		attrList,
	)
	resps, err := c.roundTrip(ctx, op, AppSearchDone)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for _, r := range resps[:len(resps)-1] {
		if r.TagNumber() != AppSearchEntry || len(r.Children) < 2 {
			continue
		}
		attrs, err := DecodeAttrs(r.Children[1])
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{DN: r.Children[0].Str(), Attrs: attrs})
	}
	if err := c.resultFrom("search", resps[len(resps)-1]); err != nil {
		return entries, err
	}
	return entries, nil
}

// timeLimitSeconds rounds a duration up to whole seconds for the wire.
func timeLimitSeconds(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Add inserts an entry.
func (c *Conn) Add(ctx context.Context, dn string, attrs []EntryAttr) error {
	op := ber.NewApplication(AppAddRequest, true,
		ber.NewOctetString(dn), EncodeAttrs(attrs))
	resps, err := c.roundTrip(ctx, op, AppAddResponse)
	if err != nil {
		return err
	}
	return c.resultFrom("add", resps[len(resps)-1])
}

// Delete removes a leaf entry.
func (c *Conn) Delete(ctx context.Context, dn string) error {
	op := &ber.Packet{Tag: ber.ClassApplication | AppDelRequest, Data: []byte(dn)}
	resps, err := c.roundTrip(ctx, op, AppDelResponse)
	if err != nil {
		return err
	}
	return c.resultFrom("delete", resps[len(resps)-1])
}

// Modify applies attribute changes.
func (c *Conn) Modify(ctx context.Context, dn string, changes []ModifyChange) error {
	list := ber.NewSequence()
	for _, ch := range changes {
		vals := ber.NewSet()
		for _, v := range ch.Attr.Vals {
			vals.AddChild(ber.NewOctetString(v))
		}
		list.AddChild(ber.NewSequence(
			ber.NewEnumerated(int64(ch.Op)),
			ber.NewSequence(ber.NewOctetString(ch.Attr.Type), vals),
		))
	}
	op := ber.NewApplication(AppModifyRequest, true,
		ber.NewOctetString(dn), list)
	resps, err := c.roundTrip(ctx, op, AppModifyResponse)
	if err != nil {
		return err
	}
	return c.resultFrom("modify", resps[len(resps)-1])
}

// ModifyDN renames an entry in place.
func (c *Conn) ModifyDN(ctx context.Context, dn, newRDN string, deleteOldRDN bool) error {
	op := ber.NewApplication(AppModifyDNRequest, true,
		ber.NewOctetString(dn),
		ber.NewOctetString(newRDN),
		ber.NewBoolean(deleteOldRDN),
	)
	resps, err := c.roundTrip(ctx, op, AppModifyDNResponse)
	if err != nil {
		return err
	}
	return c.resultFrom("modifyDN", resps[len(resps)-1])
}

// Compare tests an attribute assertion; it returns true on compareTrue.
func (c *Conn) Compare(ctx context.Context, dn, attrType, value string) (bool, error) {
	op := ber.NewApplication(AppCompareRequest, true,
		ber.NewOctetString(dn),
		ber.NewSequence(ber.NewOctetString(attrType), ber.NewOctetString(value)),
	)
	resps, err := c.roundTrip(ctx, op, AppCompareResponse)
	if err != nil {
		return false, err
	}
	r, err := DecodeResult(resps[len(resps)-1])
	if err != nil {
		return false, err
	}
	switch r.Code {
	case ResultCompareTrue:
		return true, nil
	case ResultCompareFalse:
		return false, nil
	default:
		return false, c.result("compare", r)
	}
}

// String diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("Entry{%s, %d attrs}", e.DN, len(e.Attrs))
}

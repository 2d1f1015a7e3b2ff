package jini

import (
	"context"
	"sync"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/lease"
	"gondi/internal/rpc"
)

// Registrar is a client connection to a lookup service (the
// ServiceRegistrar proxy analog).
type Registrar struct {
	rc *rpc.Client

	mu       sync.Mutex
	handlers map[uint64]func(ServiceEvent)
}

// DialRegistrar connects to the LUS at addr.
func DialRegistrar(addr string, timeout time.Duration) (*Registrar, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialRegistrarContext(ctx, addr, timeout)
}

// DialRegistrarContext connects to the LUS at addr, bounded by ctx.
// defaultTimeout applies to calls made with deadline-free contexts.
func DialRegistrarContext(ctx context.Context, addr string, defaultTimeout time.Duration) (*Registrar, error) {
	rc, err := rpc.DialContext(ctx, addr, defaultTimeout)
	if err != nil {
		return nil, err
	}
	r := &Registrar{rc: rc, handlers: map[uint64]func(ServiceEvent){}}
	rc.OnPush(func(method string, body []byte) {
		if method != mJiniEvent {
			return
		}
		ev, err := decodeEvent(body)
		if err != nil {
			return
		}
		r.mu.Lock()
		h := r.handlers[ev.RegistrationID]
		r.mu.Unlock()
		if h != nil {
			h(ev)
		}
	})
	// Liveness handshake: a TCP dial can complete against a dead LUS (a
	// crashed process's accept queue, a severed relay that accepts and
	// drops), so the dial ends with a no-op Groups round-trip. Failover
	// across "host1:port,host2:port" authorities then moves to the next
	// registrar at dial time instead of failing the first operation.
	if _, err := call(ctx, r.rc, mGroups, &wireReq{}); err != nil {
		rc.Close()
		return nil, err
	}
	return r, nil
}

// Addr returns the LUS endpoint this registrar dialed.
func (r *Registrar) Addr() string { return r.rc.Addr() }

// Close drops the connection (event registrations die with it).
func (r *Registrar) Close() error { return r.rc.Close() }

// Closed reports whether the connection has terminated (e.g. LUS
// shutdown); pooled providers use it to discard dead connections.
func (r *Registrar) Closed() bool { return r.rc.Closed() }

// Done returns a channel that closes when the connection terminates.
// Event registrations die with the connection, so Notify holders select
// on it to learn that no further events will arrive.
func (r *Registrar) Done() <-chan struct{} { return r.rc.Done() }

// call is one registrar-protocol round trip over rc, shared by the
// registrar and bind proxy clients.
func call(ctx context.Context, rc *rpc.Client, method string, req *wireReq) (*wireRsp, error) {
	buf := encBufPool.Get().(*[]byte)
	*buf = appendReq((*buf)[:0], req)
	body, err := rc.Call(ctx, method, *buf)
	encBufPool.Put(buf)
	if err != nil {
		return nil, err
	}
	return decodeRsp(body)
}

// Register registers (or overwrites — Jini has no test-and-set) a service
// item with the requested lease duration.
func (r *Registrar) Register(ctx context.Context, item ServiceItem, lease time.Duration) (Registration, error) {
	rsp, err := call(ctx, r.rc, mRegister, &wireReq{Item: item, LeaseMs: lease.Milliseconds()})
	if err != nil {
		return Registration{}, err
	}
	return rsp.Reg, nil
}

// Lookup returns up to max items matching the template (0 = all).
func (r *Registrar) Lookup(ctx context.Context, t ServiceTemplate, max int) ([]ServiceItem, error) {
	rsp, err := call(ctx, r.rc, mLookup, &wireReq{Template: t, Max: max})
	if err != nil {
		return nil, err
	}
	return rsp.Items, nil
}

// LookupOne returns the first matching item, or ok=false.
func (r *Registrar) LookupOne(ctx context.Context, t ServiceTemplate) (ServiceItem, bool, error) {
	items, err := r.Lookup(ctx, t, 1)
	if err != nil || len(items) == 0 {
		return ServiceItem{}, false, err
	}
	return items[0], true, nil
}

// Renew extends a registration's lease and returns the new expiry.
func (r *Registrar) Renew(ctx context.Context, id ServiceID, lease time.Duration) (time.Time, error) {
	rsp, err := call(ctx, r.rc, mRenew, &wireReq{ID: id, LeaseMs: lease.Milliseconds()})
	if err != nil {
		return time.Time{}, err
	}
	return rsp.Expiry, nil
}

// Cancel terminates a registration immediately.
func (r *Registrar) Cancel(ctx context.Context, id ServiceID) error {
	_, err := call(ctx, r.rc, mCancel, &wireReq{ID: id})
	return err
}

// Notify registers an event listener for template transitions; the
// returned cancel also deregisters the handler.
func (r *Registrar) Notify(ctx context.Context, t ServiceTemplate, mask int, lease time.Duration, fn func(ServiceEvent)) (cancel func(), err error) {
	rsp, err := call(ctx, r.rc, mNotify, &wireReq{Template: t, Mask: mask, LeaseMs: lease.Milliseconds()})
	if err != nil {
		return nil, err
	}
	id := rsp.RegID
	r.mu.Lock()
	r.handlers[id] = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.handlers, id)
		r.mu.Unlock()
		_, _ = call(context.Background(), r.rc, mUnnotify, &wireReq{RegID: id})
	}, nil
}

// ServiceGroups returns the LUS's discovery groups.
func (r *Registrar) ServiceGroups(ctx context.Context) ([]string, error) {
	rsp, err := call(ctx, r.rc, mGroups, &wireReq{})
	if err != nil {
		return nil, err
	}
	return rsp.Groups, nil
}

// LeaseRenewalManager renews registrations automatically until cancelled
// — how the JNDI Jini provider keeps bound entries alive (§5.1 "the
// provider automatically renews leases of all entries that it has
// previously bound, until they are explicitly removed, or until the Java
// VM exits"). It is the Jini face of internal/lease: one goroutine per
// lease, renewing by lease.Renew's rule.
type LeaseRenewalManager struct {
	// OnLost, when set before the first Manage, is invoked once for each
	// lease the manager gives up on: the registration is gone at the LUS
	// (it answered "unknown") or the lease expired while the LUS was
	// unreachable. Watch holders use it to surface the loss (the JNDI
	// provider fires an EventWatchLost). It runs after the lease has left
	// the manager, so it may call Stop.
	OnLost func(id ServiceID, err error)

	leases lease.Set
}

// NewLeaseRenewalManager builds an empty manager.
func NewLeaseRenewalManager() *LeaseRenewalManager {
	return &LeaseRenewalManager{}
}

// Manage renews id's lease of duration d through reg until Forget or
// Stop. Renewals are gated by the LUS endpoint's circuit breaker: while it
// is open the manager skips the wire, giving the lease up (via OnLost)
// only once it has actually expired. Only the breaker's state is read —
// the rpc dial layer owns the Allow/Record pair, so a renewal that times
// out cannot strand the half-open probe slot. An LUS that answers
// "unknown registration" loses the lease immediately.
func (m *LeaseRenewalManager) Manage(reg *Registrar, id ServiceID, d time.Duration) {
	if d <= 0 {
		d = DefaultLease
	}
	ctx, end, ok := m.leases.Begin(string(id))
	if !ok {
		return
	}
	var ready func() bool
	if addr := reg.Addr(); addr != "" {
		ready = breaker.For(addr).Ready
	}
	go func() {
		err := lease.Renew(ctx, d, func(ctx context.Context) error {
			_, err := reg.Renew(ctx, id, d)
			return err
		}, ready)
		end()
		if err != nil && m.OnLost != nil {
			m.OnLost(id, err)
		}
	}()
}

// Forget stops renewing id (without cancelling the registration).
func (m *LeaseRenewalManager) Forget(id ServiceID) { m.leases.Stop(string(id)) }

// Stop ends all renewals (provider close / "VM exit") and waits for them.
func (m *LeaseRenewalManager) Stop() { m.leases.StopAll() }

// Count reports managed leases (diagnostics).
func (m *LeaseRenewalManager) Count() int { return m.leases.Len() }

// BatchOp is one operation in a CallMany batch against the LUS.
type BatchOp struct {
	Method string
	Req    *wireReq
}

// BatchRsp is one operation's outcome from CallMany.
type BatchRsp struct {
	Rsp *wireRsp
	Err error
}

// CallMany sends every operation in one batch frame over the shared rpc
// connection; the LUS executes items sequentially in submission order and
// each item fails independently.
func (r *Registrar) CallMany(ctx context.Context, ops []BatchOp) ([]BatchRsp, error) {
	// Every body is encoded back to back into one pooled buffer and sliced
	// out once the buffer has stopped growing.
	buf := encBufPool.Get().(*[]byte)
	b := (*buf)[:0]
	ends := make([]int, len(ops))
	for i, op := range ops {
		b = appendReq(b, op.Req)
		ends[i] = len(b)
	}
	items := make([]rpc.BatchItem, len(ops))
	start := 0
	for i, op := range ops {
		items[i] = rpc.BatchItem{Method: op.Method, Body: b[start:ends[i]:ends[i]]}
		start = ends[i]
	}
	results, err := r.rc.CallBatch(ctx, items)
	*buf = b
	encBufPool.Put(buf)
	if err != nil {
		return nil, err
	}
	out := make([]BatchRsp, len(results))
	for i, res := range results {
		if res.Err != nil {
			out[i].Err = res.Err
			continue
		}
		out[i].Rsp, out[i].Err = decodeRsp(res.Body)
	}
	return out, nil
}

// LookupMany matches many templates in one round trip (one BatchRsp per
// template, in order; each capped at max items, 0 = all).
func (r *Registrar) LookupMany(ctx context.Context, ts []ServiceTemplate, max int) ([][]ServiceItem, []error, error) {
	ops := make([]BatchOp, len(ts))
	for i, t := range ts {
		ops[i] = BatchOp{Method: mLookup, Req: &wireReq{Template: t, Max: max}}
	}
	rsps, err := r.CallMany(ctx, ops)
	if err != nil {
		return nil, nil, err
	}
	items := make([][]ServiceItem, len(rsps))
	errs := make([]error, len(rsps))
	for i, br := range rsps {
		if br.Err != nil {
			errs[i] = br.Err
			continue
		}
		items[i] = br.Rsp.Items
	}
	return items, errs, nil
}

// RegisterMany registers many service items in one round trip; items
// apply sequentially server-side and fail independently.
func (r *Registrar) RegisterMany(ctx context.Context, regs []ServiceItem, lease time.Duration) ([]Registration, []error, error) {
	ops := make([]BatchOp, len(regs))
	for i, item := range regs {
		ops[i] = BatchOp{Method: mRegister, Req: &wireReq{Item: item, LeaseMs: lease.Milliseconds()}}
	}
	rsps, err := r.CallMany(ctx, ops)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Registration, len(rsps))
	errs := make([]error, len(rsps))
	for i, br := range rsps {
		if br.Err != nil {
			errs[i] = br.Err
			continue
		}
		out[i] = br.Rsp.Reg
	}
	return out, errs, nil
}

package hdns

import (
	"context"
	"sync"
	"time"

	"gondi/internal/retry"
	"gondi/internal/rpc"
)

// dialPolicy bounds reconnection attempts against a node that is
// restarting behind a stable address.
var dialPolicy = retry.Policy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}

// Client is a connection to one HDNS node. Reads are served by that node
// alone (read-any); writes propagate to the whole replication group
// before the call returns. A failed call's error carries its rpc status:
// test it with errors.Is against core's sentinels (core.ErrNotFound,
// core.ErrAlreadyBound, ...) or errors.As for *core.ServiceUnavailableError
// (sealed WAL) and *core.ServerBusyError.
type Client struct {
	rc *rpc.Client

	mu       sync.Mutex
	handlers map[uint64]func(EventMsg)
}

// Dial connects to an HDNS node; secret may be empty for open nodes.
func Dial(addr, secret string, timeout time.Duration) (*Client, error) {
	return DialContext(context.Background(), addr, secret, timeout)
}

// DialContext is Dial bounded by ctx; the handshake (auth) inherits the
// caller's deadline and transient dial failures are retried with backoff.
func DialContext(ctx context.Context, addr, secret string, timeout time.Duration) (*Client, error) {
	var rc *rpc.Client
	err := retry.Do(ctx, dialPolicy, func() error {
		var derr error
		rc, derr = rpc.DialContext(ctx, addr, timeout)
		return derr
	})
	if err != nil {
		return nil, err
	}
	c := &Client{rc: rc, handlers: map[uint64]func(EventMsg){}}
	rc.OnPush(func(method string, body []byte) {
		if method != mEvent {
			return
		}
		msg, err := decodeEvent(body)
		if err != nil {
			// An event this client cannot read would leave its watch
			// silently deaf. End the connection instead, as rpc does on a
			// malformed frame: every watch on it is then visibly lost.
			rc.Close()
			return
		}
		c.mu.Lock()
		h := c.handlers[msg.WatchID]
		c.mu.Unlock()
		if h != nil {
			h(msg)
		}
	})
	// A TCP dial can complete against a dead peer — a crashed node's
	// accept queue, or a severed relay that accepts and drops — so the
	// handshake always round-trips an auth, with the empty secret when
	// none is set. Multi-endpoint failover then skips to the next
	// replica at dial time instead of failing the first operation.
	if _, err := c.call(ctx, mAuth, &Op{Secret: secret}); err != nil {
		rc.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the connection (server-side watches die with it).
func (c *Client) Close() error { return c.rc.Close() }

// Closed reports whether the connection has terminated (e.g. node
// shutdown); pooled providers use it to discard dead connections.
func (c *Client) Closed() bool { return c.rc.Closed() }

// Done returns a channel that closes when the connection terminates.
// Watch holders select on it to learn that their registrations are dead
// (server-side watches die with the connection).
func (c *Client) Done() <-chan struct{} { return c.rc.Done() }

func (c *Client) call(ctx context.Context, method string, op *Op) (*Rsp, error) {
	// rpc copies the body into its own frame buffer before Call returns,
	// so the encode buffer goes straight back to the pool.
	buf := encBufPool.Get().(*[]byte)
	*buf = appendReq((*buf)[:0], op)
	body, err := c.rc.Call(ctx, method, *buf)
	encBufPool.Put(buf)
	if err != nil {
		return nil, err
	}
	return decodeRsp(body)
}

// Lookup reads the entry at name.
func (c *Client) Lookup(ctx context.Context, name []string) (NodeView, error) {
	rsp, err := c.call(ctx, mLookup, &Op{Name: name})
	if err != nil {
		return NodeView{}, err
	}
	return rsp.View, nil
}

// Bind binds atomically (fails if bound). leaseMillis > 0 grants a lease.
func (c *Client) Bind(ctx context.Context, name []string, obj []byte, attrs map[string][]string, leaseMillis int64) error {
	_, err := c.call(ctx, mBind, &Op{Name: name, Obj: obj, Attrs: attrs, LeaseMillis: leaseMillis})
	return err
}

// Rebind overwrites; replaceAttrs selects attribute semantics.
func (c *Client) Rebind(ctx context.Context, name []string, obj []byte, attrs map[string][]string, replaceAttrs bool, leaseMillis int64) error {
	_, err := c.call(ctx, mRebind, &Op{Name: name, Obj: obj, Attrs: attrs, ReplaceAttrs: replaceAttrs, LeaseMillis: leaseMillis})
	return err
}

// Unbind removes a binding (absent names succeed).
func (c *Client) Unbind(ctx context.Context, name []string) error {
	_, err := c.call(ctx, mUnbind, &Op{Name: name})
	return err
}

// Rename moves a binding.
func (c *Client) Rename(ctx context.Context, oldName, newName []string) error {
	_, err := c.call(ctx, mRename, &Op{Name: oldName, Name2: newName})
	return err
}

// List enumerates a context.
func (c *Client) List(ctx context.Context, name []string) ([]ListEntry, error) {
	rsp, err := c.call(ctx, mList, &Op{Name: name})
	if err != nil {
		return nil, err
	}
	return rsp.List, nil
}

// CreateCtx creates a subcontext.
func (c *Client) CreateCtx(ctx context.Context, name []string, attrs map[string][]string) error {
	_, err := c.call(ctx, mCreateCtx, &Op{Name: name, Attrs: attrs})
	return err
}

// DestroyCtx removes an empty subcontext.
func (c *Client) DestroyCtx(ctx context.Context, name []string) error {
	_, err := c.call(ctx, mDestroyCtx, &Op{Name: name})
	return err
}

// ModAttrs applies attribute modifications.
func (c *Client) ModAttrs(ctx context.Context, name []string, mods []ModRec) error {
	_, err := c.call(ctx, mModAttrs, &Op{Name: name, Mods: mods})
	return err
}

// Search evaluates an RFC 4515 filter (scope: 0 object, 1 one-level,
// 2 subtree).
func (c *Client) Search(ctx context.Context, name []string, filterStr string, scope, limit int) ([]SearchHit, error) {
	rsp, err := c.call(ctx, mSearch, &Op{Name: name, Filter: filterStr, Scope: scope, Limit: limit})
	if err != nil {
		return nil, err
	}
	return rsp.Hits, nil
}

// RenewLease extends (or with leaseMillis == 0 cancels) a lease.
func (c *Client) RenewLease(ctx context.Context, name []string, leaseMillis int64) (expiry int64, err error) {
	rsp, err := c.call(ctx, mLease, &Op{Name: name, LeaseMillis: leaseMillis})
	if err != nil {
		return 0, err
	}
	return rsp.Expiry, nil
}

// Watch subscribes to changes under target; events arrive on fn until
// cancel is called or the connection closes.
func (c *Client) Watch(ctx context.Context, target []string, scope int, fn func(EventMsg)) (cancel func(), err error) {
	rsp, err := c.call(ctx, mWatch, &Op{Name: target, Scope: scope})
	if err != nil {
		return nil, err
	}
	id := rsp.WatchID
	c.mu.Lock()
	c.handlers[id] = fn
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.handlers, id)
		c.mu.Unlock()
		_, _ = c.call(context.Background(), mUnwatch, &Op{WatchID: id})
	}, nil
}

// BatchRsp is one operation's outcome from a batch call: the decoded response
// or that item's error, mirroring what the unary call would have produced.
type BatchRsp struct {
	Rsp *Rsp
	Err error
}

// callMany sends every op as one method call in one batch frame over the
// shared rpc connection. The node executes items sequentially in
// submission order and each item fails independently; the call-level
// error is reserved for transport failures and whole-batch shedding.
func (c *Client) callMany(ctx context.Context, method string, ops []Op) ([]BatchRsp, error) {
	// Every body is encoded back to back into one pooled buffer and sliced
	// out once the buffer has stopped growing.
	buf := encBufPool.Get().(*[]byte)
	b := (*buf)[:0]
	items := make([]rpc.BatchItem, len(ops))
	ends := make([]int, len(ops))
	for i := range ops {
		b = appendReq(b, &ops[i])
		ends[i] = len(b)
	}
	start := 0
	for i := range ops {
		items[i] = rpc.BatchItem{Method: method, Body: b[start:ends[i]:ends[i]]}
		start = ends[i]
	}
	results, err := c.rc.CallBatch(ctx, items)
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

// LookupMany reads many entries in one round trip (one BatchRsp per name,
// in order).
func (c *Client) LookupMany(ctx context.Context, names [][]string) ([]BatchRsp, error) {
	ops := make([]Op, len(names))
	for i, name := range names {
		ops[i].Name = name
	}
	return c.callMany(ctx, mLookup, ops)
}

// BindMany binds many entries in one round trip, each op's Name, Obj,
// Attrs and LeaseMillis as Bind takes them; items apply sequentially
// server-side and fail independently.
func (c *Client) BindMany(ctx context.Context, binds []Op) ([]BatchRsp, error) {
	return c.callMany(ctx, mBind, binds)
}

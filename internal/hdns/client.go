package hdns

import (
	"context"
	"sync"
	"time"

	"gondi/internal/core"
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
	if _, err := c.Do(ctx, &Op{Kind: OpAuth, Secret: secret}); err != nil {
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

// NoMethodError refuses an op whose kind no rpc method carries: OpExpire,
// which only the coordinator's reaper issues, or a kind this build does
// not know. Nothing was sent. It is core.ErrNotSupported to errors.Is.
type NoMethodError struct{ Kind OpKind }

func (e *NoMethodError) Error() string { return "hdns: no rpc method for op kind " + e.Kind.String() }
func (e *NoMethodError) Unwrap() error { return core.ErrNotSupported }

// method is the rpc method an op of kind k travels on.
func method(k OpKind) (string, error) {
	if int(k) < len(methods) && methods[k].name != "" {
		return methods[k].name, nil
	}
	return "", &NoMethodError{Kind: k}
}

// Do sends op on the rpc method that the methods table (node.go) gives
// its kind, and returns the node's answer. Every request is an Op: a
// write carries the fields it replicates, a read the ones it reads
// (Filter, Scope, Limit, WatchID, Secret), and the node ignores the
// rest. A kind with no method is refused with a *NoMethodError, unsent.
func (c *Client) Do(ctx context.Context, op *Op) (*Rsp, error) {
	m, err := method(op.Kind)
	if err != nil {
		return nil, err
	}
	// rpc copies the body into its own frame buffer before Call returns,
	// so the encode buffer goes straight back to the pool.
	buf := encBufPool.Get().(*[]byte)
	*buf = appendReq((*buf)[:0], op)
	body, err := c.rc.Call(ctx, m, *buf)
	encBufPool.Put(buf)
	if err != nil {
		return nil, err
	}
	return decodeRsp(body)
}

// BatchRsp is one operation's outcome from a batch call: the decoded response
// or that item's error, mirroring what the unary call would have produced.
type BatchRsp struct {
	Rsp *Rsp
	Err error
}

// DoMany sends every op in one batch frame over the shared rpc
// connection, each on its own kind's method, so a batch may mix kinds.
// The node executes items sequentially in submission order and each
// item fails independently; the call-level error is reserved for
// transport failures, whole-batch shedding and a kind with no method
// (then nothing is sent).
func (c *Client) DoMany(ctx context.Context, ops []Op) ([]BatchRsp, error) {
	items := make([]rpc.BatchItem, len(ops))
	for i := range ops {
		m, err := method(ops[i].Kind)
		if err != nil {
			return nil, err
		}
		items[i].Method = m
	}
	// Every body is encoded back to back into one pooled buffer and sliced
	// out once the buffer has stopped growing.
	buf := encBufPool.Get().(*[]byte)
	b := (*buf)[:0]
	ends := make([]int, len(ops))
	for i := range ops {
		b = appendReq(b, &ops[i])
		ends[i] = len(b)
	}
	start := 0
	for i := range items {
		items[i].Body = b[start:ends[i]:ends[i]]
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

// Watch subscribes to changes under target; events arrive on fn until
// cancel is called or the connection closes.
func (c *Client) Watch(ctx context.Context, target []string, scope int, fn func(EventMsg)) (cancel func(), err error) {
	rsp, err := c.Do(ctx, &Op{Kind: OpWatch, Name: target, Scope: scope})
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
		_, _ = c.Do(context.Background(), &Op{Kind: OpUnwatch, WatchID: id})
	}, nil
}

// Lookup reads the entry at name. It is Do spelled for the benchmark's
// ladder (bench/ladder.go), which calls it, and goes when the benchmark
// next changes.
func (c *Client) Lookup(ctx context.Context, name []string) (NodeView, error) {
	rsp, err := c.Do(ctx, &Op{Kind: OpLookup, Name: name})
	if err != nil {
		return NodeView{}, err
	}
	return rsp.View, nil
}

// LookupMany reads many entries in one round trip (one BatchRsp per
// name, in order). It is DoMany spelled for bench/ladder.go, as Lookup.
func (c *Client) LookupMany(ctx context.Context, names [][]string) ([]BatchRsp, error) {
	ops := make([]Op, len(names))
	for i, name := range names {
		ops[i] = Op{Kind: OpLookup, Name: name}
	}
	return c.DoMany(ctx, ops)
}

// Rebind overwrites; replaceAttrs selects attribute semantics. It is Do
// spelled for bench/ladder.go, as Lookup.
func (c *Client) Rebind(ctx context.Context, name []string, obj []byte, attrs map[string][]string, replaceAttrs bool, leaseMillis int64) error {
	_, err := c.Do(ctx, &Op{Kind: OpRebind, Name: name, Obj: obj, Attrs: attrs, ReplaceAttrs: replaceAttrs, LeaseMillis: leaseMillis})
	return err
}

package jini

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gondi/internal/core"
	"gondi/internal/rpc"
)

// BindProxy implements the optimization §7 of the paper proposes for
// strict bind semantics: "a proxy-based solution should be adopted so
// that the necessary locking is performed locally (near the Jini LUS,
// e.g. on the same host), exposing the atomic interface to the client."
//
// The proxy runs next to the lookup service and serializes test-and-set
// registrations under a local mutex, so clients get atomic bind at the
// cost of one extra round trip instead of the Eisenberg–McGuire 3-read/
// 5-write distributed critical section.
type BindProxy struct {
	srv *rpc.Server
	reg *Registrar

	// mu serializes the check-then-register sequence; because every
	// strict write funnels through this one process, the local lock is
	// sufficient (the insight behind the paper's proposal).
	mu sync.Mutex
}

// ErrProxyBound is the proxy's already-bound failure; clients see it as
// core.ErrAlreadyBound.
var ErrProxyBound = fmt.Errorf("jini: already bound: %w", core.ErrAlreadyBound)

// NewBindProxy starts a proxy on listenAddr serving atomic registrations
// against the LUS at lusAddr.
func NewBindProxy(lusAddr, listenAddr string) (*BindProxy, error) {
	reg, err := DialRegistrar(lusAddr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	srv, err := rpc.NewServer(listenAddr)
	if err != nil {
		reg.Close()
		return nil, err
	}
	p := &BindProxy{srv: srv, reg: reg}
	p.handlers()
	return p, nil
}

// Addr returns the proxy's address.
func (p *BindProxy) Addr() string { return p.srv.Addr() }

// Close stops the proxy.
func (p *BindProxy) Close() error {
	err := p.srv.Close()
	if cerr := p.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

const mProxyRegister = "jini.proxy.register"

func (p *BindProxy) handlers() {
	p.srv.Handle(mProxyRegister, func(_ *rpc.ServerConn, body []byte) ([]byte, error) {
		req, err := decodeReq(body)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		ctx := context.Background()
		if req.Item.ID != "" && req.OnlyNew {
			_, exists, err := p.reg.LookupOne(ctx, ServiceTemplate{ID: req.Item.ID})
			if err != nil {
				return nil, err
			}
			if exists {
				return nil, ErrProxyBound
			}
		}
		reg, err := p.reg.Register(ctx, req.Item, time.Duration(req.LeaseMs)*time.Millisecond)
		if err != nil {
			return nil, err
		}
		return encodeRsp(&wireRsp{Reg: reg}), nil
	})
}

// ProxyClient is the client side of a bind proxy.
type ProxyClient struct {
	rc *rpc.Client
}

// DialProxy connects to a bind proxy.
func DialProxy(addr string, timeout time.Duration) (*ProxyClient, error) {
	rc, err := rpc.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &ProxyClient{rc: rc}, nil
}

// Close drops the connection.
func (c *ProxyClient) Close() error { return c.rc.Close() }

// Closed reports whether the connection has terminated.
func (c *ProxyClient) Closed() bool { return c.rc.Closed() }

// Register performs an atomic registration through the proxy. With
// onlyNew, it fails with core.ErrAlreadyBound when the item ID is taken.
func (c *ProxyClient) Register(ctx context.Context, item ServiceItem, lease time.Duration, onlyNew bool) (Registration, error) {
	rsp, err := call(ctx, c.rc, mProxyRegister, &wireReq{Item: item, LeaseMs: lease.Milliseconds(), OnlyNew: onlyNew})
	if err != nil {
		return Registration{}, err
	}
	return rsp.Reg, nil
}

// Package jxta implements a JXTA-style peer-to-peer naming substrate —
// the third technology in the paper's federation example URL
// "ldap://host.domain/n=jiniServer/jxtaGroup/myObject" (§6).
//
// The model follows JXTA's essentials: peers organize into a hierarchy of
// peer groups rooted at the net peer group; within a group, peers publish
// *advertisements* (named, attributed, expiring documents) to a
// rendezvous peer and discover them by name or attribute query. This
// implementation centralizes the rendezvous (one server per deployment),
// which matches how JXTA behaves behind multicast-blocking routers.
//
// Simplification vs. real JXTA: PublishNew offers atomic first-publish
// semantics server-side (real JXTA discovery has no such primitive); the
// JNDI provider uses it for the atomic bind contract.
package jxta

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/retry"
	"gondi/internal/rpc"
	"gondi/internal/serverutil"
)

// NetGroup is the root peer group every rendezvous starts with.
const NetGroup = "net"

// DefaultLifetime is granted when a publish requests none.
const DefaultLifetime = 2 * time.Minute

// Advertisement is a published document within a peer group.
type Advertisement struct {
	// ID is assigned by the rendezvous on first publish.
	ID string
	// Group is the full group path, e.g. "net/campus/sensors".
	Group string
	// Name identifies the advertisement within its group.
	Name string
	// Attrs are queryable attributes.
	Attrs map[string][]string
	// Payload is the opaque document body.
	Payload []byte
	// Expiry is the advertisement's lifetime end (unix millis).
	Expiry int64
}

// Errors. Each wraps the core error it stands for, which is what a Peer
// sees across the wire (test with errors.Is against core's sentinels).
var (
	ErrNoSuchGroup   = fmt.Errorf("jxta: no such peer group: %w", core.ErrNotFound)
	ErrGroupExists   = fmt.Errorf("jxta: peer group already exists: %w", core.ErrAlreadyBound)
	ErrAdvExists     = fmt.Errorf("jxta: advertisement already published: %w", core.ErrAlreadyBound)
	ErrNoSuchAdv     = fmt.Errorf("jxta: no such advertisement: %w", core.ErrNotFound)
	ErrGroupNotEmpty = fmt.Errorf("jxta: peer group not empty: %w", core.ErrContextNotEmpty)
	// ErrBadGroupPath is a path with an empty component.
	ErrBadGroupPath = fmt.Errorf("jxta: malformed group path: %w", core.ErrInvalidNameEmpty)
)

func newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return "urn:jxta:" + hex.EncodeToString(b[:])
}

// normGroup validates and normalizes a group path under the net group.
func normGroup(g string) (string, error) {
	g = strings.Trim(g, "/")
	if g == "" {
		return NetGroup, nil
	}
	parts := strings.Split(g, "/")
	if parts[0] != NetGroup {
		parts = append([]string{NetGroup}, parts...)
	}
	for _, p := range parts {
		if p == "" {
			return "", ErrBadGroupPath
		}
	}
	return strings.Join(parts, "/"), nil
}

type group struct {
	name    string                    // full path
	adverts map[string]*Advertisement // key: Name
}

// Rendezvous is the rendezvous peer: the advertisement index for a
// deployment's peer groups.
type Rendezvous struct {
	srv *rpc.Server
	adm *admission.Controller

	mu     sync.Mutex
	groups map[string]*group // key: full path

	done chan struct{}
	wg   sync.WaitGroup
}

// RendezvousOption tunes a rendezvous peer at construction.
type RendezvousOption func(*Rendezvous)

// WithAdmission gates every handler through c; nil admits everything.
func WithAdmission(c *admission.Controller) RendezvousOption {
	return func(r *Rendezvous) { r.adm = c }
}

// NewRendezvous starts a rendezvous peer on addr.
func NewRendezvous(addr string, opts ...RendezvousOption) (*Rendezvous, error) {
	srv, err := rpc.NewServer(addr)
	if err != nil {
		return nil, err
	}
	r := &Rendezvous{
		srv:    srv,
		groups: map[string]*group{NetGroup: {name: NetGroup, adverts: map[string]*Advertisement{}}},
		done:   make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	r.handlers()
	r.wg.Add(1)
	go r.reaper()
	return r, nil
}

// Addr returns the rendezvous address.
func (r *Rendezvous) Addr() string { return r.srv.Addr() }

// Close stops the rendezvous.
func (r *Rendezvous) Close() error {
	select {
	case <-r.done:
		return nil
	default:
	}
	close(r.done)
	r.wg.Wait()
	return r.srv.Close()
}

func (r *Rendezvous) reaper() {
	defer r.wg.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case now := <-t.C:
			ms := now.UnixMilli()
			r.mu.Lock()
			for _, g := range r.groups {
				for name, adv := range g.adverts {
					if adv.Expiry > 0 && adv.Expiry < ms {
						delete(g.adverts, name)
					}
				}
			}
			r.mu.Unlock()
		}
	}
}

// --- server-side operations ---

func (r *Rendezvous) createGroup(path string) error {
	path, err := normGroup(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.groups[path]; exists {
		return ErrGroupExists
	}
	parent := path[:strings.LastIndexByte(path, '/')]
	if _, ok := r.groups[parent]; !ok {
		return ErrNoSuchGroup
	}
	r.groups[path] = &group{name: path, adverts: map[string]*Advertisement{}}
	return nil
}

func (r *Rendezvous) destroyGroup(path string) error {
	path, err := normGroup(path)
	if err != nil {
		return err
	}
	if path == NetGroup {
		return ErrGroupNotEmpty
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.groups[path]
	if !ok {
		return ErrNoSuchGroup
	}
	if len(g.adverts) > 0 {
		return ErrGroupNotEmpty
	}
	prefix := path + "/"
	for other := range r.groups {
		if strings.HasPrefix(other, prefix) {
			return ErrGroupNotEmpty
		}
	}
	delete(r.groups, path)
	return nil
}

// publish stores an advertisement; withNew demands first-publish.
func (r *Rendezvous) publish(adv *Advertisement, lifetime time.Duration, onlyNew bool) (*Advertisement, error) {
	path, err := normGroup(adv.Group)
	if err != nil {
		return nil, err
	}
	if adv.Name == "" {
		return nil, errors.New("jxta: advertisement without a name")
	}
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.groups[path]
	if !ok {
		return nil, ErrNoSuchGroup
	}
	old, exists := g.adverts[adv.Name]
	if exists && onlyNew {
		return nil, ErrAdvExists
	}
	stored := *adv
	stored.Group = path
	if exists {
		stored.ID = old.ID
	} else if stored.ID == "" {
		stored.ID = newID()
	}
	stored.Expiry = time.Now().Add(lifetime).UnixMilli()
	stored.Attrs = copyAttrs(adv.Attrs)
	stored.Payload = append([]byte(nil), adv.Payload...)
	g.adverts[stored.Name] = &stored
	out := stored
	return &out, nil
}

func copyAttrs(in map[string][]string) map[string][]string {
	out := make(map[string][]string, len(in))
	for k, v := range in {
		out[strings.ToLower(k)] = append([]string(nil), v...)
	}
	return out
}

func (r *Rendezvous) flush(groupPath, name string) error {
	path, err := normGroup(groupPath)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.groups[path]
	if !ok {
		return ErrNoSuchGroup
	}
	delete(g.adverts, name)
	return nil
}

// discover returns adverts in a group matching the (optional) exact name
// and (optional) attribute pattern (attr -> value; "*" value = presence).
func (r *Rendezvous) discover(groupPath, name string, attrs map[string]string, limit int) ([]Advertisement, error) {
	path, err := normGroup(groupPath)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.groups[path]
	if !ok {
		return nil, ErrNoSuchGroup
	}
	now := time.Now().UnixMilli()
	var out []Advertisement
	names := make([]string, 0, len(g.adverts))
	for n := range g.adverts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		adv := g.adverts[n]
		if adv.Expiry > 0 && adv.Expiry < now {
			continue
		}
		if name != "" && adv.Name != name {
			continue
		}
		if !attrsMatch(adv.Attrs, attrs) {
			continue
		}
		cp := *adv
		cp.Attrs = copyAttrs(adv.Attrs)
		cp.Payload = append([]byte(nil), adv.Payload...)
		out = append(out, cp)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

func attrsMatch(have map[string][]string, want map[string]string) bool {
	for k, v := range want {
		vals := have[strings.ToLower(k)]
		if v == "*" {
			if len(vals) == 0 {
				return false
			}
			continue
		}
		found := false
		for _, hv := range vals {
			if strings.EqualFold(hv, v) {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// subGroups lists the direct child groups of a group, sorted.
func (r *Rendezvous) subGroups(groupPath string) ([]string, error) {
	path, err := normGroup(groupPath)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.groups[path]; !ok {
		return nil, ErrNoSuchGroup
	}
	prefix := path + "/"
	set := map[string]bool{}
	for other := range r.groups {
		if !strings.HasPrefix(other, prefix) {
			continue
		}
		rest := strings.TrimPrefix(other, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		set[rest] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// GroupCount reports the number of peer groups (diagnostics).
func (r *Rendezvous) GroupCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.groups)
}

// --- wire protocol ---

const (
	mPublish      = "jxta.publish"
	mFlush        = "jxta.flush"
	mDiscover     = "jxta.discover"
	mCreateGroup  = "jxta.createGroup"
	mDestroyGroup = "jxta.destroyGroup"
	mSubGroups    = "jxta.subGroups"
	mRenew        = "jxta.renew"
)

func (r *Rendezvous) handlers() {
	p := serverutil.NewPipeline("jxta", r.Addr(), r.adm, nil)
	for _, m := range []struct {
		method string
		class  admission.Class
		fn     func(*rpc.ServerConn, *wireReq) (*wireRsp, error)
	}{
		{mPublish, admission.Write, func(_ *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			adv, err := r.publish(&req.Adv, time.Duration(req.LifetimeMs)*time.Millisecond, req.OnlyNew)
			if err != nil {
				return nil, err
			}
			return &wireRsp{Adv: *adv}, nil
		}},
		{mRenew, admission.Write, func(_ *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			advs, err := r.discover(req.Group, req.Name, nil, 1)
			if err != nil {
				return nil, err
			}
			if len(advs) == 0 {
				return nil, ErrNoSuchAdv
			}
			adv, err := r.publish(&advs[0], time.Duration(req.LifetimeMs)*time.Millisecond, false)
			if err != nil {
				return nil, err
			}
			return &wireRsp{Adv: *adv}, nil
		}},
		{mFlush, admission.Write, func(_ *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			return &wireRsp{}, r.flush(req.Group, req.Name)
		}},
		{mDiscover, admission.Search, func(_ *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			advs, err := r.discover(req.Group, req.Name, req.Query, req.Limit)
			if err != nil {
				return nil, err
			}
			return &wireRsp{Advs: advs}, nil
		}},
		{mCreateGroup, admission.Write, func(_ *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			return &wireRsp{}, r.createGroup(req.Group)
		}},
		{mDestroyGroup, admission.Write, func(_ *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			return &wireRsp{}, r.destroyGroup(req.Group)
		}},
		{mSubGroups, admission.Read, func(_ *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			gs, err := r.subGroups(req.Group)
			if err != nil {
				return nil, err
			}
			return &wireRsp{Groups: gs}, nil
		}},
	} {
		serverutil.HandleRPC(r.srv, p.Stage(m.method, m.class), decodeReq, encodeRsp, m.fn)
	}
}

// Peer is a client of one rendezvous.
type Peer struct {
	rc *rpc.Client
}

// dialPolicy retries rendezvous dials briefly: peers race their
// rendezvous at startup, so a refused connection is usually transient.
var dialPolicy = retry.Policy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}

// DialPeer connects a peer to a rendezvous.
func DialPeer(addr string, timeout time.Duration) (*Peer, error) {
	return DialPeerContext(context.Background(), addr, timeout)
}

// DialPeerContext connects a peer to a rendezvous, honoring ctx for the
// dial (with brief retries on transient failures) and using timeout as
// the per-call default for later Peer calls that carry no deadline.
func DialPeerContext(ctx context.Context, addr string, timeout time.Duration) (*Peer, error) {
	var rc *rpc.Client
	err := retry.Do(ctx, dialPolicy, func() error {
		var derr error
		rc, derr = rpc.DialContext(ctx, addr, timeout)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return &Peer{rc: rc}, nil
}

// Close drops the connection.
func (p *Peer) Close() error { return p.rc.Close() }

// Closed reports whether the connection has terminated.
func (p *Peer) Closed() bool { return p.rc.Closed() }

func (p *Peer) call(ctx context.Context, method string, req *wireReq) (*wireRsp, error) {
	buf := encBufPool.Get().(*[]byte)
	*buf = appendReq((*buf)[:0], req)
	body, err := p.rc.Call(ctx, method, *buf)
	encBufPool.Put(buf)
	if err != nil {
		return nil, err
	}
	return decodeRsp(body)
}

// Publish stores an advertisement (overwriting an existing one of the
// same name); onlyNew demands atomic first-publish.
func (p *Peer) Publish(ctx context.Context, adv Advertisement, lifetime time.Duration, onlyNew bool) (Advertisement, error) {
	rsp, err := p.call(ctx, mPublish, &wireReq{Adv: adv, LifetimeMs: lifetime.Milliseconds(), OnlyNew: onlyNew})
	if err != nil {
		return Advertisement{}, err
	}
	return rsp.Adv, nil
}

// Renew extends an advertisement's lifetime.
func (p *Peer) Renew(ctx context.Context, group, name string, lifetime time.Duration) (Advertisement, error) {
	rsp, err := p.call(ctx, mRenew, &wireReq{Group: group, Name: name, LifetimeMs: lifetime.Milliseconds()})
	if err != nil {
		return Advertisement{}, err
	}
	return rsp.Adv, nil
}

// Flush removes an advertisement.
func (p *Peer) Flush(ctx context.Context, group, name string) error {
	_, err := p.call(ctx, mFlush, &wireReq{Group: group, Name: name})
	return err
}

// Discover queries a group's advertisements by optional exact name and
// attribute pattern ("*" values test presence).
func (p *Peer) Discover(ctx context.Context, group, name string, query map[string]string, limit int) ([]Advertisement, error) {
	rsp, err := p.call(ctx, mDiscover, &wireReq{Group: group, Name: name, Query: query, Limit: limit})
	if err != nil {
		return nil, err
	}
	return rsp.Advs, nil
}

// CreateGroup creates a child peer group.
func (p *Peer) CreateGroup(ctx context.Context, path string) error {
	_, err := p.call(ctx, mCreateGroup, &wireReq{Group: path})
	return err
}

// DestroyGroup removes an empty peer group.
func (p *Peer) DestroyGroup(ctx context.Context, path string) error {
	_, err := p.call(ctx, mDestroyGroup, &wireReq{Group: path})
	return err
}

// SubGroups lists a group's direct child groups.
func (p *Peer) SubGroups(ctx context.Context, path string) ([]string, error) {
	rsp, err := p.call(ctx, mSubGroups, &wireReq{Group: path})
	if err != nil {
		return nil, err
	}
	return rsp.Groups, nil
}

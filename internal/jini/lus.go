package jini

import (
	"fmt"
	"sync"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/rpc"
	"gondi/internal/serverutil"
)

// LUSConfig configures a lookup service.
type LUSConfig struct {
	// ListenAddr is the registrar TCP address ("127.0.0.1:0").
	ListenAddr string
	// Groups are the discovery groups this LUS belongs to ("" = public).
	Groups []string
	// Costs is charged by the registrar's request pipeline (nil = full
	// speed); see serverutil.Costs for the rule.
	Costs serverutil.Costs
	// Admission gates every handler; nil admits everything.
	Admission *admission.Controller
}

// LUS is the lookup service (the reggie stand-in).
type LUS struct {
	cfg LUSConfig
	srv *rpc.Server

	mu       sync.Mutex
	items    map[ServiceID]*storedItem
	watchers map[uint64]*watcher
	nextReg  uint64

	done chan struct{}
	wg   sync.WaitGroup
}

type storedItem struct {
	item   ServiceItem
	expiry time.Time
}

type watcher struct {
	id       uint64
	template ServiceTemplate
	mask     int
	expiry   time.Time
	conn     *rpc.ServerConn
}

// reapInterval is the lease-expiry sweep period. An expired item is gone
// to renew and lookup from the moment it expires; the sweep only removes
// it and fires its MatchNoMatch events.
const reapInterval = 250 * time.Millisecond

// NewLUS starts a lookup service.
func NewLUS(cfg LUSConfig) (*LUS, error) {
	srv, err := rpc.NewServer(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	l := &LUS{
		cfg:      cfg,
		srv:      srv,
		items:    map[ServiceID]*storedItem{},
		watchers: map[uint64]*watcher{},
		done:     make(chan struct{}),
	}
	l.registerHandlers()
	srv.OnConnClose(func(sc *rpc.ServerConn) {
		l.mu.Lock()
		for id, w := range l.watchers {
			if w.conn == sc {
				delete(l.watchers, id)
			}
		}
		l.mu.Unlock()
	})
	l.wg.Add(1)
	go l.reaper()
	return l, nil
}

// Addr returns the registrar address.
func (l *LUS) Addr() string { return l.srv.Addr() }

// Groups returns the discovery groups.
func (l *LUS) Groups() []string { return l.cfg.Groups }

// Close stops the service.
func (l *LUS) Close() error {
	select {
	case <-l.done:
		return nil
	default:
	}
	close(l.done)
	l.wg.Wait()
	return l.srv.Close()
}

// reaper expires leases, firing MatchNoMatch events.
func (l *LUS) reaper() {
	defer l.wg.Done()
	t := time.NewTicker(reapInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case now := <-t.C:
			l.mu.Lock()
			var fire []func()
			for id, si := range l.items {
				if now.After(si.expiry) {
					delete(l.items, id)
					fire = append(fire, l.transitionLocked(&si.item, nil)...)
				}
			}
			for id, w := range l.watchers {
				if now.After(w.expiry) {
					delete(l.watchers, id)
				}
			}
			l.mu.Unlock()
			for _, f := range fire {
				f()
			}
		}
	}
}

// transitionLocked computes watcher notifications for an item change
// (old == nil for new registrations, new == nil for removals).
func (l *LUS) transitionLocked(old, new *ServiceItem) []func() {
	var fire []func()
	for _, w := range l.watchers {
		oldMatch := old != nil && w.template.Matches(old)
		newMatch := new != nil && w.template.Matches(new)
		var transition int
		switch {
		case oldMatch && !newMatch:
			transition = TransitionMatchNoMatch
		case !oldMatch && newMatch:
			transition = TransitionNoMatchMatch
		case oldMatch && newMatch:
			transition = TransitionMatchMatch
		default:
			continue
		}
		if w.mask&transition == 0 {
			continue
		}
		ev := ServiceEvent{RegistrationID: w.id, Transition: transition}
		if new != nil {
			item := new.Clone()
			ev.Item = &item
			ev.ID = new.ID
		} else if old != nil {
			ev.ID = old.ID
		}
		conn := w.conn
		fire = append(fire, func() {
			buf := encBufPool.Get().(*[]byte)
			*buf = appendEvent((*buf)[:0], &ev)
			_ = conn.Push(mJiniEvent, *buf)
			encBufPool.Put(buf)
		})
	}
	return fire
}

func clampLease(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = DefaultLease
	}
	if d > MaxLease {
		d = MaxLease
	}
	return d
}

// register implements the overwrite-only Jini registration.
func (l *LUS) register(item ServiceItem, leaseMs int64) Registration {
	if item.ID == "" {
		item.ID = NewServiceID()
	}
	expiry := time.Now().Add(clampLease(leaseMs))
	l.mu.Lock()
	var oldItem *ServiceItem
	if prev, ok := l.items[item.ID]; ok {
		o := prev.item.Clone()
		oldItem = &o
	}
	stored := item.Clone()
	l.items[item.ID] = &storedItem{item: stored, expiry: expiry}
	fire := l.transitionLocked(oldItem, &stored)
	l.mu.Unlock()
	for _, f := range fire {
		f()
	}
	return Registration{ID: item.ID, Expiry: expiry}
}

// lookup returns matching items, bounded by max (0 = all). A template
// with an ID reads that one item from the map instead of scanning.
func (l *LUS) lookup(t ServiceTemplate, max int) []ServiceItem {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if t.ID != "" {
		si, ok := l.items[t.ID]
		if !ok || !now.Before(si.expiry) || !t.Matches(&si.item) {
			return nil
		}
		return []ServiceItem{si.item.Clone()}
	}
	var out []ServiceItem
	for _, si := range l.items {
		if now.Before(si.expiry) && t.Matches(&si.item) {
			out = append(out, si.item.Clone())
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

var errNoSuchLease = fmt.Errorf("jini: unknown or expired lease: %w", core.ErrNotFound)

func (l *LUS) renew(id ServiceID, leaseMs int64) (time.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	si, ok := l.items[id]
	if !ok || !now.Before(si.expiry) {
		return time.Time{}, errNoSuchLease
	}
	si.expiry = now.Add(clampLease(leaseMs))
	return si.expiry, nil
}

func (l *LUS) cancel(id ServiceID) error {
	l.mu.Lock()
	si, ok := l.items[id]
	var fire []func()
	if ok {
		delete(l.items, id)
		fire = l.transitionLocked(&si.item, nil)
	}
	l.mu.Unlock()
	for _, f := range fire {
		f()
	}
	if !ok {
		return errNoSuchLease
	}
	return nil
}

// ItemCount reports the number of live registrations (diagnostics).
func (l *LUS) ItemCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// --- wire protocol ---

const (
	mRegister  = "jini.register"
	mLookup    = "jini.lookup"
	mRenew     = "jini.renew"
	mCancel    = "jini.cancel"
	mNotify    = "jini.notify"
	mUnnotify  = "jini.unnotify"
	mGroups    = "jini.groups"
	mJiniEvent = "jini.event" // push
)

func (l *LUS) registerHandlers() {
	p := serverutil.NewPipeline("jini", l.Addr(), l.cfg.Admission, l.cfg.Costs)
	for _, m := range []struct {
		method string
		class  admission.Class
		fn     func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error)
	}{
		{mRegister, admission.Write, func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			return &wireRsp{Reg: l.register(req.Item, req.LeaseMs)}, nil
		}},
		{mLookup, admission.Search, func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			return &wireRsp{Items: l.lookup(req.Template, req.Max)}, nil
		}},
		{mRenew, admission.Write, func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			exp, err := l.renew(req.ID, req.LeaseMs)
			if err != nil {
				return nil, err
			}
			return &wireRsp{Expiry: exp}, nil
		}},
		{mCancel, admission.Write, func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			if err := l.cancel(req.ID); err != nil {
				return nil, err
			}
			return &wireRsp{}, nil
		}},
		{mNotify, admission.Read, func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			l.mu.Lock()
			l.nextReg++
			id := l.nextReg
			l.watchers[id] = &watcher{
				id: id, template: req.Template, mask: req.Mask,
				expiry: time.Now().Add(clampLease(req.LeaseMs)), conn: sc,
			}
			l.mu.Unlock()
			return &wireRsp{RegID: id}, nil
		}},
		{mUnnotify, admission.Read, func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			l.mu.Lock()
			delete(l.watchers, req.RegID)
			l.mu.Unlock()
			return &wireRsp{}, nil
		}},
		{mGroups, admission.Read, func(sc *rpc.ServerConn, req *wireReq) (*wireRsp, error) {
			return &wireRsp{Groups: l.cfg.Groups}, nil
		}},
	} {
		serverutil.HandleRPC(l.srv, p.Stage(m.method, m.class), decodeReq, encodeRsp, m.fn)
	}
}

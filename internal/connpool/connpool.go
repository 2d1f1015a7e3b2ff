// Package connpool owns the connection lifecycle the wire providers
// share. A JNDI client's contexts share what it opened: one connection
// per server (and environment), held by every root context that asked for
// it. The pooled value's Close stops the lease renewals (internal/lease)
// of every entry bound through it, so leases live "until they are
// explicitly removed, or until the Java VM exits" (§5.1) — here, until
// the last holder releases the connection.
package connpool

import (
	"sync"
	"sync/atomic"
)

// Conn is a pooled value. Implementations embed Entry, which carries the
// pool's bookkeeping.
type Conn interface {
	// Closed reports that the underlying connection has died, so the next
	// Get dials a replacement. Get calls it under the pool's lock: it must
	// be a cheap state read.
	Closed() bool
	// Close tears the value down. The pool calls it once, on the last
	// release.
	Close() error

	entry() *Entry
}

// Entry is the pool's bookkeeping for one value; embed it in the pooled
// type.
type Entry struct {
	key      string
	refs     int // guarded by the owning Pool's mu
	released atomic.Bool
}

func (e *Entry) entry() *Entry { return e }

// Released reports, without taking a lock, whether the last holder has
// released the value.
func (e *Entry) Released() bool { return e.released.Load() }

// Ref is one holder's claim on a pooled value. Keep it by value inside the
// handle that holds the claim, so releasing the handle twice is a no-op
// that costs no allocation.
type Ref struct{ done atomic.Bool }

// held counts the values, across every pool, that have a holder left.
var held atomic.Int64

// Held reports how many pooled values, across every pool in the process,
// some holder has not released yet. Once every context over a pool is
// closed it is back where it started, which is what leak checks test.
func Held() int { return int(held.Load()) }

// Pool maps a key to one shared, reference-counted value. The zero value
// is ready to use.
type Pool[C Conn] struct {
	mu sync.Mutex
	m  map[string]C
}

// Get returns the live value for key with one more reference taken, or
// dials a new one. A dead value is replaced; its holders keep it until
// they release it. A failed dial leaves no entry behind.
func (p *Pool[C]) Get(key string, dial func() (C, error)) (C, error) {
	p.mu.Lock()
	if v, ok := p.m[key]; ok {
		if !v.Closed() {
			v.entry().refs++
			p.mu.Unlock()
			return v, nil
		}
		delete(p.m, key)
	}
	p.mu.Unlock()

	v, err := dial()
	if err != nil {
		return v, err
	}
	e := v.entry()
	e.key, e.refs = key, 1
	held.Add(1)
	p.mu.Lock()
	if p.m == nil {
		p.m = map[string]C{}
	}
	// A concurrent Get may have dialled the same key; the later value
	// wins the slot and the earlier one lives on with its holders.
	p.m[key] = v
	p.mu.Unlock()
	return v, nil
}

// Release drops the reference r holds on v; a second Release through the
// same r does nothing. The last release marks v released, removes it from
// the pool — only if it still occupies its key, so a dead value never
// evicts its replacement — and closes it.
func (p *Pool[C]) Release(v C, r *Ref) error {
	if !r.done.CompareAndSwap(false, true) {
		return nil
	}
	e := v.entry()
	p.mu.Lock()
	e.refs--
	last := e.refs == 0
	if last {
		e.released.Store(true)
		held.Add(-1)
		if cur, ok := p.m[e.key]; ok && cur.entry() == e {
			delete(p.m, e.key)
		}
	}
	p.mu.Unlock()
	if !last {
		return nil
	}
	return v.Close()
}

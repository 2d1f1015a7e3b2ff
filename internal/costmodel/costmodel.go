// Package costmodel holds calibrated, 2005-era per-operation service
// costs, charged by the servers' request pipelines (serverutil.Costs), so
// that the paper's throughput figures can be regenerated on modern hardware.
//
// The paper's testbed (Pentium 4 2.4 GHz servers on gigabit Ethernet,
// §7) saturates at a few hundred to ~2000 operations per second depending
// on the service. A loopback Go server is several orders of magnitude
// faster, so without calibration every curve would sit on the ideal 20·N
// line and the figures would be unreadable. The *mechanisms* that shape
// the curves — extra serialization work in the provider layer, the 3-read/
// 5-write Eisenberg–McGuire critical section, write replication, unbounded
// queue growth — are implemented for real; this package only scales the
// base service times. Every experiment in EXPERIMENTS.md records which
// station parameters it used.
//
// A Station is a k-server queueing station: each operation must occupy one
// of k workers for its service time, so saturation throughput is
// k/serviceTime and response time grows under overload, as in the paper's
// closed-loop experiments. The optional DegradePerQueued models the
// JGroups buffer-management pathology behind Figure 5: service time grows
// with the backlog, so overload *collapses* throughput instead of
// plateauing it.
package costmodel

import (
	"sync"
	"sync/atomic"
	"time"
)

// Station is a k-server queueing station with a fixed base service time,
// simulated in virtual time: each operation is assigned a departure
// instant on the earliest-free simulated worker and its goroutine sleeps
// until then. Throughput under saturation is exactly workers/service
// regardless of OS sleep granularity, and no CPU is burned spinning —
// important on small machines.
//
// The zero value (or a nil *Station) is a no-op station that admits every
// operation instantly — substrates run full speed in unit tests.
type Station struct {
	workers int
	service time.Duration
	// degradePerQueued lengthens service by this much per queued
	// operation at admission time (unbounded-buffer pathology).
	degradePerQueued time.Duration
	// queueCap, if positive, bounds the queue; operations beyond it are
	// rejected (bounded-buffer ablation).
	queueCap int

	queued atomic.Int64

	mu        sync.Mutex
	nextFree  []time.Time // per simulated worker
	completed int64
}

// Option configures a Station.
type Option func(*Station)

// WithDegradePerQueued makes service time grow by d per operation waiting
// at admission; this is the Figure 5 overload-collapse mechanism.
func WithDegradePerQueued(d time.Duration) Option {
	return func(s *Station) { s.degradePerQueued = d }
}

// WithQueueCap bounds the admission queue; excess operations fail fast.
func WithQueueCap(n int) Option {
	return func(s *Station) { s.queueCap = n }
}

// NewStation builds a station with k workers and the given base service
// time per operation.
func NewStation(workers int, service time.Duration, opts ...Option) *Station {
	if workers < 1 {
		workers = 1
	}
	s := &Station{workers: workers, service: service}
	for _, o := range opts {
		o(s)
	}
	s.nextFree = make([]time.Time, workers)
	return s
}

// Do passes an operation through the station: it occupies the earliest-
// free simulated worker for the base service time plus extra, blocking
// the caller until the operation's departure instant. It returns false
// if the station's queue cap rejected the operation. A nil station
// admits immediately.
func (s *Station) Do(extra time.Duration) bool {
	if s == nil || s.nextFree == nil {
		return true
	}
	now := time.Now()
	q := s.queued.Add(1)
	if s.queueCap > 0 && int(q) > s.queueCap+s.workers {
		s.queued.Add(-1)
		return false
	}
	hold := s.service + extra
	if s.degradePerQueued > 0 {
		backlog := q - int64(s.workers)
		if backlog > 0 {
			hold += time.Duration(backlog) * s.degradePerQueued
		}
	}
	s.mu.Lock()
	idx := 0
	for i := 1; i < len(s.nextFree); i++ {
		if s.nextFree[i].Before(s.nextFree[idx]) {
			idx = i
		}
	}
	start := s.nextFree[idx]
	if start.Before(now) {
		start = now
	}
	depart := start.Add(hold)
	s.nextFree[idx] = depart
	s.mu.Unlock()

	// Sleep granularity only adds latency beyond the departure instant;
	// the virtual clock already advanced by exactly `hold`, so
	// saturation throughput is unaffected.
	if d := time.Until(depart); d > 0 {
		time.Sleep(d)
	}
	s.queued.Add(-1)
	s.mu.Lock()
	s.completed++
	s.mu.Unlock()
	return true
}

// QueueLen returns the number of operations currently admitted or waiting.
func (s *Station) QueueLen() int {
	if s == nil {
		return 0
	}
	return int(s.queued.Load())
}

// Completed returns the number of operations that finished service.
func (s *Station) Completed() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed
}

// RateLimiter is a token bucket, used to reproduce the OpenLDAP read
// plateau the paper observed ("some automatic slowdown mechanism, such as
// a countermeasure against Denial-of-Service attacks", §7). A nil limiter
// admits everything.
type RateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter admitting rate operations per second
// with the given burst.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	return &RateLimiter{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// Wait blocks until a token is available.
func (r *RateLimiter) Wait() {
	if r == nil {
		return
	}
	for {
		r.mu.Lock()
		now := time.Now()
		r.tokens += now.Sub(r.last).Seconds() * r.rate
		r.last = now
		if r.tokens > r.burst {
			r.tokens = r.burst
		}
		if r.tokens >= 1 {
			r.tokens--
			r.mu.Unlock()
			return
		}
		need := (1 - r.tokens) / r.rate
		r.mu.Unlock()
		time.Sleep(time.Duration(need * float64(time.Second)))
	}
}

// Costs bundles the read and write stations a server charges per
// operation, plus a per-byte unmarshalling cost that makes bulkier
// payloads (e.g. the Jini provider's wrapped stubs) genuinely more
// expensive server-side, and an optional read throttle.
type Costs struct {
	Read    *Station
	Write   *Station
	PerByte time.Duration // extra service time per payload byte
	// Throttle, if set, admits reads before their service (the OpenLDAP
	// read plateau of Figure 7).
	Throttle *RateLimiter
}

// ReadCost charges a read of n payload bytes; it reports admission.
func (c *Costs) ReadCost(n int) bool {
	if c == nil {
		return true
	}
	c.Throttle.Wait()
	return c.Read.Do(time.Duration(n) * c.PerByte)
}

// WriteCost charges a write of n payload bytes; it reports admission.
func (c *Costs) WriteCost(n int) bool {
	if c == nil {
		return true
	}
	return c.Write.Do(time.Duration(n) * c.PerByte)
}

// Calibration constants for the 2005 testbed, chosen so that saturation
// points land where the paper's figures put them (see EXPERIMENTS.md for
// the paper-vs-measured comparison):
//
//   - raw Jini lookups peak ≈400 op/s  → 2.4 ms service
//   - raw Jini rebinds peak ≈140 op/s  → 7.0 ms service
//   - HDNS lookups exceed 1800 op/s    → 0.5 ms service
//   - HDNS rebinds peak ≈200 op/s      → 4.6 ms service, degrading
//   - DNS lookups exceed 1800 op/s     → 0.5 ms service
//   - LDAP reads plateau ≈800 op/s     → throttle, 1.1 ms service
//   - LDAP writes scale well           → 0.7 ms service
const (
	JiniReadService  = 2400 * time.Microsecond
	JiniWriteService = 7 * time.Millisecond
	HDNSReadService  = 500 * time.Microsecond
	HDNSWriteService = 3200 * time.Microsecond
	DNSReadService   = 500 * time.Microsecond
	LDAPReadService  = 1100 * time.Microsecond
	LDAPWriteService = 350 * time.Microsecond

	// JiniPerByte makes the provider layer's bulkier marshalled stubs
	// cost real server time, yielding the ≈25% SPI penalty of Figure 2.
	JiniPerByte = 4000 * time.Nanosecond

	// HDNSDegrade reproduces the Figure 5 collapse: every queued write
	// inflates service time (JGroups unbounded message queues).
	HDNSDegrade = 220 * time.Microsecond

	// LDAPReadRate is the OpenLDAP read plateau.
	LDAPReadRate = 800.0
)

// JiniCosts returns the calibrated station set for a Jini LUS.
func JiniCosts() *Costs {
	return &Costs{
		Read:    NewStation(1, JiniReadService, WithDegradePerQueued(8*time.Microsecond)),
		Write:   NewStation(1, JiniWriteService, WithDegradePerQueued(20*time.Microsecond)),
		PerByte: JiniPerByte,
	}
}

// HDNSCosts returns the calibrated station set for one HDNS node.
func HDNSCosts() *Costs {
	return &Costs{
		Read:  NewStation(1, HDNSReadService),
		Write: NewStation(1, HDNSWriteService, WithDegradePerQueued(HDNSDegrade)),
	}
}

// HDNSBoundedCosts is the ablation variant with a bounded write queue
// (the fix the paper says it is "currently investigating").
func HDNSBoundedCosts() *Costs {
	return &Costs{
		Read:  NewStation(1, HDNSReadService),
		Write: NewStation(1, HDNSWriteService, WithQueueCap(32)),
	}
}

// DNSCosts returns the calibrated station set for the DNS server.
func DNSCosts() *Costs {
	return &Costs{Read: NewStation(1, DNSReadService), Write: NewStation(1, DNSReadService)}
}

// LDAPCosts returns the calibrated station set for the LDAP server,
// with its read throttle.
func LDAPCosts() *Costs {
	return &Costs{
		Read:     NewStation(2, LDAPReadService),
		Write:    NewStation(1, LDAPWriteService),
		Throttle: NewRateLimiter(LDAPReadRate, 16),
	}
}

// Package fault is the deterministic fault-injection layer used by the
// chaos tests (ptest.RunFaultConformance) and the self-healing
// integration tests. It injects failures at the stack's transport seams:
//
//   - Conn / Listener wrap net connections and inject latency, dropped
//     writes, connection resets, short writes, and one-way partitions,
//     according to a seedable schedule (Injector).
//   - Proxy / UDPProxy stand between a wire client and a real server
//     (rpc, LDAP, DNS), applying an Injector to the forwarded traffic and
//     supporting hard cuts — the way tests fault servers whose listeners
//     they do not own.
//   - FabricSchedule drives a jgroups.Fabric through a scripted sequence
//     of view partitions and merges (the HDNS PRIMARY PARTITION tests).
//   - Harness crash-stops and restarts a server behind a stable proxy
//     address (the five daemons in tests).
//
// Determinism: an Injector's fault decisions are a pure function of its
// seed and the I/O operation sequence number, so a test that serializes
// its operations replays the identical fault schedule on every run.
package fault

import (
	"math/rand"
	"sync"
	"time"
)

// Config tunes an Injector. Probabilities are per I/O operation in
// [0, 1); zero fields inject nothing.
type Config struct {
	// Seed makes the schedule reproducible; 0 is a valid seed.
	Seed int64
	// Latency is added to an operation when a latency fault fires.
	Latency time.Duration
	// LatencyProb is the probability a read or write is delayed.
	LatencyProb float64
	// DropProb is the probability a write is silently discarded (the
	// caller sees success; the peer sees nothing and times out).
	DropProb float64
	// ResetProb is the probability an operation tears the connection
	// down (the peer observes a reset).
	ResetProb float64
	// ShortWriteProb is the probability a write is truncated mid-frame
	// (torn protocol framing; the peer's decoder fails).
	ShortWriteProb float64
}

// Injector decides, per I/O operation, which fault (if any) to inject.
// One Injector may feed any number of Conns/Proxies; decisions are made
// under a lock from one seeded stream, so a fixed seed and a fixed
// operation order reproduce a fixed schedule.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
	ops uint64

	// enabled gates all probabilistic faults (cuts below are separate).
	enabled bool
	// cutIn / cutOut are one-way partitions: inbound (server→client)
	// and outbound (client→server) bytes stop flowing while set.
	cutIn  bool
	cutOut bool
}

// NewInjector builds an injector for the given schedule, initially
// enabled.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), enabled: true}
}

// decision is the fault chosen for one operation.
type decision struct {
	latency    time.Duration
	drop       bool
	reset      bool
	shortWrite bool
}

// next draws the next operation's fault decision.
func (i *Injector) next(isWrite bool) decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ops++
	var d decision
	if !i.enabled {
		return d
	}
	// One draw per fault class keeps the stream's consumption pattern
	// fixed per operation, so adding ops elsewhere cannot shift which
	// fault a given draw produces.
	pl, pd, pr, ps := i.rng.Float64(), i.rng.Float64(), i.rng.Float64(), i.rng.Float64()
	if i.cfg.LatencyProb > 0 && pl < i.cfg.LatencyProb {
		d.latency = i.cfg.Latency
	}
	if isWrite && i.cfg.DropProb > 0 && pd < i.cfg.DropProb {
		d.drop = true
	}
	if i.cfg.ResetProb > 0 && pr < i.cfg.ResetProb {
		d.reset = true
	}
	if isWrite && i.cfg.ShortWriteProb > 0 && ps < i.cfg.ShortWriteProb {
		d.shortWrite = true
	}
	return d
}

// Ops reports how many I/O operations have consulted the schedule.
func (i *Injector) Ops() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// SetEnabled gates the probabilistic faults (latency, drops, resets,
// short writes); one-way cuts are controlled separately.
func (i *Injector) SetEnabled(on bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.enabled = on
}

// CutInbound starts (or ends) a one-way partition of server→client
// traffic: reads stall as if the path went dark.
func (i *Injector) CutInbound(cut bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cutIn = cut
}

// CutOutbound starts (or ends) a one-way partition of client→server
// traffic: writes are swallowed.
func (i *Injector) CutOutbound(cut bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cutOut = cut
}

// Restore ends all one-way partitions.
func (i *Injector) Restore() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cutIn, i.cutOut = false, false
}

func (i *Injector) inCut() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cutIn
}

func (i *Injector) outCut() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cutOut
}

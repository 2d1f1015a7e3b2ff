package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	rounds = 5
	// opTimeout is the latency beyond which a completed op counts as
	// failed (timed out). The loop does not arm a timer per op — that
	// would charge the generator's allocations to the system — so a
	// stuck op is bounded by the client context's run-wide deadline.
	opTimeout = 2 * time.Second
)

// target executes and verifies one operation.
type target func(ctx context.Context, op *opSpec, alt bool) error

// picker draws the seeded op sequence of one client.
type picker struct {
	groups  []opGroup
	rng     *rand.Rand
	zipf    []*rand.Zipf // per group, nil when uniform
	client  int
	clients int
	// deck fixes the mix: one slot per percent of weight, shuffled once
	// from the seed and dealt cyclically, so every 100 consecutive ops of
	// a client hold each group in its exact share. Drawing the group at
	// random instead would let the share of the dearest op kind (LDAP)
	// wander between rounds and move allocs_per_op by more than its bound.
	deck []uint8
	pos  int
}

// newPicker seeds client i of n: rand.NewSource(seed<<8 | i).
func newPicker(groups []opGroup, seed int64, client, clients int) *picker {
	p := &picker{groups: groups, client: client, clients: clients,
		rng: rand.New(rand.NewSource(seed<<8 | int64(client)))}
	p.zipf = make([]*rand.Zipf, len(groups))
	for i, g := range groups {
		for w := 0; w < g.weight; w++ {
			p.deck = append(p.deck, uint8(i))
		}
		if g.zipf {
			p.zipf[i] = rand.NewZipf(p.rng, 1.1, 1, uint64(len(g.ops)-1))
		}
	}
	p.rng.Shuffle(len(p.deck), func(a, b int) { p.deck[a], p.deck[b] = p.deck[b], p.deck[a] })
	return p
}

// next returns the next op and which of its two values a rebind writes.
func (p *picker) next() (group int, op *opSpec, alt bool) {
	group = int(p.deck[p.pos])
	if p.pos++; p.pos == len(p.deck) {
		p.pos = 0
	}
	g := &p.groups[group]
	var i int
	switch {
	case p.zipf[group] != nil:
		i = int(p.zipf[group].Uint64())
	case g.ownNames:
		// Client c of n draws only names c, c+n, c+2n, ...
		i = p.client + p.clients*p.rng.Intn(len(g.ops)/p.clients)
	default:
		i = p.rng.Intn(len(g.ops))
	}
	op = &g.ops[i]
	if op.kind == opRebind {
		alt = p.rng.Intn(2) == 1
	}
	return group, op, alt
}

// client is one closed-loop caller: it issues its next op when the
// previous one returns, with zero think time.
type client struct {
	pick     *picker
	lat      hist
	ok, fail uint64
	wrong    uint64    // wrong-payload share of fail
	perGroup [8]uint64 // ops attempted per group
	firstErr error
}

// runFor drives tgt until the deadline passes or maxOps ops are done
// (0 = no op limit). It allocates nothing per op: latencies go to the
// client's pre-allocated histogram.
func (c *client) runFor(ctx context.Context, tgt target, d time.Duration, maxOps uint64) {
	t0 := time.Now()
	deadline := t0.Add(d)
	for n := uint64(0); t0.Before(deadline) && (maxOps == 0 || n < maxOps); n++ {
		g, op, alt := c.pick.next()
		err := tgt(ctx, op, alt)
		t1 := time.Now()
		lat := t1.Sub(t0)
		c.perGroup[g]++
		switch {
		case err != nil:
			c.fail++
			if _, ok := err.(*wrongPayloadError); ok {
				c.wrong++
			}
			if c.firstErr == nil {
				c.firstErr = err
			}
		case lat > opTimeout:
			c.fail++
		default:
			c.ok++
			c.lat.record(lat)
		}
		t0 = t1
	}
}

// sample is a process-wide resource reading.
type sample struct {
	wall           time.Time
	cpu            time.Duration // user + system
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs)}
}

// roundResult is one timed round, every end-to-end metric of it.
type roundResult struct {
	Seconds         float64 `json:"seconds"`
	Ops             uint64  `json:"ops"`
	Failed          uint64  `json:"failed"`
	FailRatio       float64 `json:"fail_ratio"`
	OpsPerS         float64 `json:"ops_per_s"`
	LatP50us        float64 `json:"lat_p50_us"`
	LatP99us        float64 `json:"lat_p99_us"`
	BeyondP99       uint64  `json:"samples_beyond_p99"`
	CPUusPerOp      float64 `json:"cpu_us_per_op"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	GCCycles        uint32  `json:"gc_cycles"`
	GCPauseMs       float64 `json:"gc_pause_ms"`
	CPUUtil         float64 `json:"cpu_util"`
}

// loadResult is everything a set of rounds measured.
type loadResult struct {
	Clients   int           `json:"clients"`
	Rounds    []roundResult `json:"rounds"`
	Attempted uint64        `json:"attempted"`
	Failed    uint64        `json:"failed"`
	Wrong     uint64        `json:"wrong_payload"`
	PerGroup  []uint64      `json:"ops_per_group"`
	FirstErr  string        `json:"first_error,omitempty"`
}

// runLoad warms up untimed, then runs the timed rounds back to back with
// nClients closed-loop clients sharing tgt. Nothing else runs in the
// process between two rounds but the resource readings.
func runLoad(groups []opGroup, tgt target, seed int64, nClients int, warmup, round time.Duration) loadResult {
	clients := make([]*client, nClients)
	for i := range clients {
		clients[i] = &client{pick: newPicker(groups, seed, i, nClients)}
	}
	// One run-wide deadline bounds a stuck op without a timer per op.
	ctx, cancel := context.WithTimeout(context.Background(), warmup+rounds*round+30*time.Second)
	defer cancel()
	drive := func(d time.Duration) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.runFor(ctx, tgt, d, 0)
			}(c)
		}
		wg.Wait()
	}

	drive(warmup)
	res := loadResult{Clients: nClients, PerGroup: make([]uint64, len(groups))}
	for _, c := range clients { // warm-up ops are verified but not measured
		res.Attempted += c.ok + c.fail
		res.Failed += c.fail
		res.Wrong += c.wrong
	}
	var merged hist
	for r := 0; r < rounds; r++ {
		for _, c := range clients {
			c.lat.reset()
			c.ok, c.fail, c.wrong = 0, 0, 0
		}
		before := takeSample()
		drive(round)
		after := takeSample()

		merged.reset()
		var ok, fail, wrong uint64
		for _, c := range clients {
			merged.merge(&c.lat)
			ok, fail, wrong = ok+c.ok, fail+c.fail, wrong+c.wrong
		}
		res.Attempted += ok + fail
		res.Failed += fail
		res.Wrong += wrong
		res.Rounds = append(res.Rounds, summarizeRound(before, after, ok, fail, &merged))
	}
	for _, c := range clients {
		for g := range res.PerGroup {
			res.PerGroup[g] += c.perGroup[g]
		}
		if c.firstErr != nil && res.FirstErr == "" {
			res.FirstErr = c.firstErr.Error()
		}
	}
	return res
}

func summarizeRound(before, after sample, ok, fail uint64, h *hist) roundResult {
	secs := after.wall.Sub(before.wall).Seconds()
	ops := float64(max(ok, 1))
	p50, _ := h.quantile(0.50)
	p99, beyond := h.quantile(0.99)
	cpu := (after.cpu - before.cpu).Seconds()
	return roundResult{
		Seconds:         secs,
		Ops:             ok,
		Failed:          fail,
		FailRatio:       float64(fail) / float64(max(ok+fail, 1)),
		OpsPerS:         float64(ok) / secs,
		LatP50us:        p50 / 1e3,
		LatP99us:        p99 / 1e3,
		BeyondP99:       beyond,
		CPUusPerOp:      cpu * 1e6 / ops,
		AllocsPerOp:     float64(after.mallocs-before.mallocs) / ops,
		AllocBytesPerOp: float64(after.bytes-before.bytes) / ops,
		GCCycles:        after.gcCycles - before.gcCycles,
		GCPauseMs:       float64(after.gcPause-before.gcPause) / 1e6,
		CPUUtil:         cpu / secs / float64(runtime.GOMAXPROCS(0)),
	}
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func overRounds(rs []roundResult, f func(roundResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

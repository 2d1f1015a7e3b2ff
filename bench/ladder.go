package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gondi/internal/admission"
	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/dnssrv"
	"gondi/internal/hdns"
	"gondi/internal/jini"
	"gondi/internal/ldapsrv"
	"gondi/internal/obs"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/ldapsp"
	"gondi/internal/rpc"
	"gondi/internal/wal"
)

// The ladder enters the stack at each deeper public function, one caller,
// a fixed budget per rung, and derives a layer's self cost as its rung
// minus the rung below it. It is the same for every workload: it measures
// the code, not a traffic mix.

const (
	ladderKeys  = 2000                   // keys seeded in the ladder's HDNS groups
	rungBudget  = 500 * time.Millisecond // wall-clock share of one rung in its set
	rungBatches = 400                    // batch cap of one rung
)

// budget sizes a set's op counts; heavyOps suits calls of ~2 ms, slowOps
// calls of ~10 ms.
// lead ops run untimed at the head of every batch: the probe before it
// left this probe's connections and goroutines parked, and the wake-up
// belongs to the switch, not to the layer.
type budget struct{ warm, lead, batch int }

var (
	normalOps = budget{warm: 50, lead: 4, batch: 64}
	heavyOps  = budget{warm: 10, lead: 2, batch: 16}
	slowOps   = budget{warm: 2, lead: 0, batch: 2}
)

// rung is the steady cost of one call at one entry point, or the
// difference of two. noiseNs, set on a difference, is how well the rounds
// pin its ns down: the quartile distance of the per-round differences
// over the root of their count, about one standard error of their
// median. A self time within two of it of 0 is unresolved.
type rung struct{ ns, allocs, noiseNs float64 }

// probe is one entry point of a set of rungs that are subtracted from
// one another.
type probe struct {
	name string
	f    func(i int) error
	// weight, when set, is how many plain ops one call is worth (32 for
	// a 32-item batch call): the probe runs that many times fewer calls,
	// so it does not take the set's time from the others.
	weight int
	// before and after, when set, bracket each batch (the obs switch).
	before, after func()
}

// set is what measureSet learned about its probes: the mean op time and
// allocation count of every batch, batch i of each probe taken within the
// same few tens of milliseconds.
type set struct {
	ns, allocs map[string][]float64
}

// of is a probe's own cost: its median batch.
func (s *set) of(name string) rung {
	return rung{ns: median(s.ns[name]), allocs: median(s.allocs[name])}
}

// self is a probe's cost minus the probes below it, as the median of the
// per-round differences: batch i of every probe ran back to back, so a
// slow phase of the machine moves all of them and cancels, and a burst of
// background allocation (a gossip round) moves one batch, not the median.
func (s *set) self(name string, below ...string) rung {
	diffs := func(m map[string][]float64) []float64 {
		d := append([]float64(nil), m[name]...)
		for _, b := range below {
			for i := range d {
				d[i] -= m[b][i]
			}
		}
		return d
	}
	ns := diffs(s.ns)
	q1, q3 := quartiles(ns) // measureSet runs at least 3 rounds
	return rung{ns: median(ns), allocs: median(diffs(s.allocs)), noiseNs: (q3 - q1) / math.Sqrt(float64(len(ns)))}
}

// measureSet measures the probes of one ladder together, in interleaved
// batches — every probe once per round: the machine's speed
// wanders by tens of percent over seconds, and rungs measured one after
// the other would subtract that drift, not the layers. A batch is long
// enough (64 ops) that the cold start after switching probes does not
// set its mean. Allocations are process-wide, so a rung that crosses a
// socket includes the server's side of the call; they are read outside
// the timed interval.
func measureSet(bud budget, probes ...probe) (*set, error) {
	out := &set{ns: map[string][]float64{}, allocs: map[string][]float64{}}
	seq := make([]int, len(probes)) // per-probe op counter, so keys keep advancing
	run := func(p int, n int) error {
		pr := &probes[p]
		if pr.before != nil {
			pr.before()
			defer pr.after()
		}
		for i := 0; i < n; i++ {
			if err := pr.f(seq[p]); err != nil {
				return fmt.Errorf("%s: %w", pr.name, err)
			}
			seq[p]++
		}
		return nil
	}
	// calls scales an op count by the probe's weight, rounding up.
	calls := func(p, ops int) int {
		w := max(probes[p].weight, 1)
		return (ops + w - 1) / w
	}
	for p := range probes {
		if err := run(p, calls(p, bud.warm)); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	deadline := time.Now().Add(time.Duration(len(probes)) * rungBudget)
	// Every round takes the probes in another order: a socket probe that
	// follows one that crosses no socket runs slower for its whole batch
	// (the idle core's threads have parked), and a fixed order would charge
	// that to the same probe every time.
	order := rand.New(rand.NewSource(1))
	for b := 0; b < rungBatches && (b < 3 || time.Now().Before(deadline)); b++ {
		for _, p := range order.Perm(len(probes)) {
			if err := run(p, calls(p, bud.lead)); err != nil {
				return nil, err
			}
			n := calls(p, bud.batch)
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := run(p, n); err != nil {
				return nil, err
			}
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			name := probes[p].name
			out.ns[name] = append(out.ns[name], float64(took.Nanoseconds())/float64(n))
			out.allocs[name] = append(out.allocs[name], float64(after.Mallocs-before.Mallocs)/float64(n))
		}
	}
	return out, nil
}

// measure is measureSet for a rung that is subtracted from nothing.
func measure(bud budget, f func(i int) error) (rung, error) {
	s, err := measureSet(bud, probe{name: "rung", f: f})
	if err != nil {
		return rung{}, err
	}
	return s.of("rung"), nil
}

// ladder accumulates the per-layer rows.
type ladder struct {
	ctx  context.Context
	seed int64
	env  map[string]any
	out  map[string]value
	// noise holds, per *_self_ns row, the standard error of the median
	// behind it (rung.noiseNs).
	noise map[string]float64
	tmp   string
	// whole-path rungs kept for the self-time sums
	e2e map[string]rung
	// The traced workload's own operation joins the set that decomposes
	// it, so the sum of self times and the end-to-end latency it is held
	// against are measured in the same interleaved batches.
	workload  string
	workOp    func(i int) error
	selfSumNs float64 // median over rounds of the summed self times

	closers []func() error
}

func (l *ladder) onClose(f func() error) { l.closers = append(l.closers, f) }

func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	os.RemoveAll(l.tmp)
}

// put records a *_ns row and its sibling *_allocs row.
func (l *ladder) put(name string, r rung) {
	l.out[name+"_ns"] = value{r.ns, "ns"}
	l.out[name+"_allocs"] = value{r.allocs, "allocs"}
	if r.noiseNs > 0 {
		l.noise[name+"_ns"] = r.noiseNs
	}
}

func (l *ladder) count(name string, v float64, unit string) { l.out[name] = value{v, unit} }

// hdnsWorld starts a ladder-sized group and seeds it.
func (l *ladder) hdnsWorld(name string, nodes int, persist bool) (*world, error) {
	w := &world{name: "ladder-" + name}
	var err error
	if w.tmp, err = os.MkdirTemp(l.tmp, name+"-"); err != nil {
		return nil, err
	}
	l.onClose(w.close)
	if err := w.startHDNSGroup(nodes, persist, worldOptions{}); err != nil {
		return nil, err
	}
	_, names, values := makeOps(opLookup, l.seed, "hdns", "", 0, ladderKeys)
	return w, seed(l.ctx, "hdns://"+w.nodes[0].Addr()+"/", l.env, names, values)
}

func poolEnv(env map[string]any, pool string) map[string]any {
	out := map[string]any{core.EnvPoolID: pool}
	for k, v := range env {
		out[k] = v
	}
	return out
}

// runLadder measures every rung and returns the closed ladder: its
// per-layer rows, the noise of the self times, and the whole-path rungs the self-time
// sums are checked against.
func runLadder(ctx context.Context, seedN int64, workload string, workOp func(i int) error) (_ *ladder, err error) {
	l := &ladder{ctx: ctx, seed: seedN, out: map[string]value{}, noise: map[string]float64{}, e2e: map[string]rung{},
		workload: workload, workOp: workOp, env: benchEnv()}
	if l.tmp, err = os.MkdirTemp("out", "ladder-"); err != nil {
		return nil, err
	}
	defer l.close()
	for _, step := range []func() error{l.soloRungs, l.hdnsRungs, l.jiniRungs, l.ldapRungs} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func attrMap() map[string][]string { return benchAttrs.ToMap() }

// measureWith measures probes, joined by the traced workload's own op
// when this is the set that decomposes workload wl. whole is the sum of
// the self times along wl's path in round i; the differences telescope,
// so it is written in the rungs they leave. The sum is held against the
// workload's op round by round: medians of differences do not add up to
// the median of their sum.
func (l *ladder) measureWith(wl string, whole func(s *set, i int) float64, probes ...probe) (*set, error) {
	if l.workload != wl {
		return measureSet(normalOps, probes...)
	}
	s, err := measureSet(normalOps, append(probes, probe{name: "workload", f: l.workOp})...)
	if err != nil {
		return nil, err
	}
	work := s.ns["workload"]
	sums, ratios := make([]float64, len(work)), make([]float64, len(work))
	for i := range work {
		sums[i] = whole(s, i)
		ratios[i] = sums[i] / work[i]
	}
	l.count("trace.e2e_ns", median(work), "ns")
	l.count("trace.self_sum_ratio", median(ratios), "ratio")
	l.selfSumNs = median(sums)
	return s, nil
}

// soloRungs: entry points that cross no socket and are subtracted from
// nothing — URL parse, the admission gate, the log alone. Sync reaches
// the sandbox's page cache, not a device.
func (l *ladder) soloRungs() error {
	url := "hdns://127.0.0.1:7001/" + keyName(1)
	parse, err := measure(normalOps, func(int) error { _, err := core.ParseURLName(url); return err })
	if err != nil {
		return err
	}
	l.put("core.parse_url", parse)

	ctrl := controller("bench")
	admit, err := measure(normalOps, func(int) error {
		release, err := ctrl.Admit(admission.Read, "bench", "lookup")
		if err != nil {
			return err
		}
		release()
		return nil
	})
	if err != nil {
		return err
	}
	l.put("admission.admit", admit)

	log, err := wal.Open(filepath.Join(l.tmp, "wal-rung"))
	if err != nil {
		return err
	}
	l.onClose(log.Close)
	rec := make([]byte, 330) // about one rebind record of the workloads
	appendR, err := measure(normalOps, func(int) error { return log.Append(rec) })
	if err != nil {
		return err
	}
	l.put("wal.append", appendR)
	// One fsync per 32 appended records, as a housekeeping tick finds them.
	syncR, err := measure(budget{warm: 2, lead: 0, batch: 1}, func(int) error {
		for i := 0; i < 32; i++ {
			if err := log.Append(rec); err != nil {
				return err
			}
		}
		return log.Sync()
	})
	if err != nil {
		return err
	}
	l.put("wal.sync", rung{ns: syncR.ns - 32*appendR.ns, allocs: syncR.allocs - 32*appendR.allocs})
	return nil
}

// echoProbes starts an rpc server that answers fixed-size bodies: the
// frame layer alone, measured inside the sets that subtract it.
func (l *ladder) echoProbes() (call, small, batch probe, cl *rpc.Client, err error) {
	srv, err := rpc.NewServer("127.0.0.1:0")
	if err != nil {
		return
	}
	l.onClose(srv.Close)
	rsp400, rsp16 := make([]byte, 400), make([]byte, 16)
	srv.Handle("echo", func(*rpc.ServerConn, []byte) ([]byte, error) { return rsp400, nil })
	srv.Handle("echo16", func(*rpc.ServerConn, []byte) ([]byte, error) { return rsp16, nil })
	if cl, err = rpc.Dial(srv.Addr(), 5*time.Second); err != nil {
		return
	}
	l.onClose(cl.Close)
	req120, req16 := make([]byte, 120), make([]byte, 16)
	items := make([]rpc.BatchItem, 32)
	for i := range items {
		items[i] = rpc.BatchItem{Method: "echo", Body: req120}
	}
	call = probe{name: "echo", f: func(int) error { _, err := cl.Call(l.ctx, "echo", req120); return err }}
	small = probe{name: "echo16", f: func(int) error { _, err := cl.Call(l.ctx, "echo16", req16); return err }}
	batch = probe{name: "echo-batch", weight: 32, f: func(int) error { _, err := cl.CallBatch(l.ctx, items); return err }}
	return
}

// pipelineSpeedup runs the same number of echo calls from one caller in
// lockstep and from 8 callers sharing the connection, alternating the
// two so the machine's drift falls on both.
func (l *ladder) pipelineSpeedup(cl *rpc.Client) (float64, error) {
	const calls, callers, turns = 400, 8, 5
	req := make([]byte, 120)
	burst := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := cl.Call(l.ctx, "echo", req); err != nil {
				return err
			}
		}
		return nil
	}
	var lockstep, pipelined time.Duration
	for t := 0; t < turns; t++ {
		start := time.Now()
		if err := burst(calls); err != nil {
			return 0, err
		}
		lockstep += time.Since(start)

		var wg sync.WaitGroup
		errs := make(chan error, callers)
		start = time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- burst(calls / callers)
			}()
		}
		wg.Wait()
		pipelined += time.Since(start)
		close(errs)
		for err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	return float64(lockstep) / float64(pipelined), nil
}

// hdnsRungs: InitialContext -> hdnssp.Context -> hdns.Client -> rpc and
// hdns.Store, for lookup and rebind; then the cache and DNS sets that
// sit on the same group.
func (l *ladder) hdnsRungs() error {
	read, err := l.hdnsWorld("read", 2, false)
	if err != nil {
		return err
	}
	solo, err := l.hdnsWorld("solo", 1, false)
	if err != nil {
		return err
	}
	logged, err := l.hdnsWorld("logged", 1, true)
	if err != nil {
		return err
	}
	addr, soloAddr := read.nodes[0].Addr(), solo.nodes[0].Addr()
	ic, err := core.Open(l.ctx, clientOptions(l.env, nil, false)...)
	if err != nil {
		return err
	}
	l.onClose(ic.Close)
	names := make([]string, ladderKeys)
	urls := make([]string, ladderKeys)
	soloURLs := make([]string, ladderKeys)
	comps := make([][]string, ladderKeys)
	for i := range names {
		names[i] = keyName(i)
		urls[i] = "hdns://" + addr + "/" + names[i]
		soloURLs[i] = "hdns://" + soloAddr + "/" + names[i]
		comps[i] = []string{names[i]}
	}
	key := func(i int) int { return i % ladderKeys }
	dial := func(w *world) (*hdns.Client, error) {
		c, err := hdns.Dial(w.nodes[0].Addr(), "", 5*time.Second)
		if err == nil {
			l.onClose(c.Close)
		}
		return c, err
	}
	open := func(a string) (*hdnssp.Context, error) {
		c, err := hdnssp.Open(l.ctx, a, poolEnv(l.env, "ladder-sp"))
		if err == nil {
			l.onClose(c.Close)
		}
		return c, err
	}
	echo, echo16, echoBatch, echoClient, err := l.echoProbes()
	if err != nil {
		return err
	}

	// Lookup ladder.
	pc, err := open(addr)
	if err != nil {
		return err
	}
	raw, err := dial(read)
	if err != nil {
		return err
	}
	store := read.nodes[0].Store()
	r, err := l.measureWith(wlHDNSRead, func(s *set, i int) float64 { return s.ns["top"][i] },
		probe{name: "top", f: func(i int) error { _, err := ic.Lookup(l.ctx, urls[key(i)]); return err }},
		probe{name: "prov", f: func(i int) error { _, err := pc.Lookup(l.ctx, names[key(i)]); return err }},
		probe{name: "client", f: func(i int) error { _, err := raw.Lookup(l.ctx, comps[key(i)]); return err }},
		probe{name: "many", weight: 32, f: func(i int) error {
			at := (i * 32) % (ladderKeys - 32)
			_, err := raw.LookupMany(l.ctx, comps[at:at+32])
			return err
		}},
		echo, echo16, echoBatch,
	)
	if err != nil {
		return err
	}
	// The store rungs cross no socket, so they stay out of the sets above:
	// a socket probe that follows one runs slow for its whole batch. At
	// ~2 us of ~300 their medians are subtracted unpaired.
	storeR, err := measure(normalOps, func(i int) error {
		if !store.Lookup(comps[key(i)]).Exists {
			return fmt.Errorf("key missing from the store")
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.e2e[wlHDNSRead] = r.of("top")
	l.put("core.resolve_self", r.self("top", "prov"))
	l.put("hdnssp.lookup_self", r.self("prov", "client"))
	lookupSelf := r.self("client", "echo")
	lookupSelf.ns, lookupSelf.allocs = lookupSelf.ns-storeR.ns, lookupSelf.allocs-storeR.allocs
	l.put("hdns.lookup_self", lookupSelf)
	l.put("hdns.batch_lookup_per_item", rung{ns: r.of("many").ns / 32, allocs: r.of("many").allocs / 32})
	l.put("hdns.store_lookup", storeR)
	l.put("rpc.call", r.of("echo"))
	l.put("rpc.call_small", r.of("echo16"))
	l.put("rpc.batch_per_item", rung{ns: r.of("echo-batch").ns / 32, allocs: r.of("echo-batch").allocs / 32})
	speedup, err := l.pipelineSpeedup(echoClient)
	if err != nil {
		return err
	}
	l.count("rpc.pipeline_speedup", speedup, "ratio")

	if err := l.cacheRungs(pc, urls, names); err != nil {
		return err
	}

	// Rebind ladder: one node and no WAL is the base; a second node adds
	// replication, a WAL adds the log path.
	spc, err := open(soloAddr)
	if err != nil {
		return err
	}
	rawSolo, err := dial(solo)
	if err != nil {
		return err
	}
	rawLogged, err := dial(logged)
	if err != nil {
		return err
	}
	value := payload(l.seed, "hdns", 0, 1)
	data, err := core.Marshal(value)
	if err != nil {
		return err
	}
	attrs := attrMap()
	rebind := func(c *hdns.Client) func(int) error {
		return func(i int) error { return c.Rebind(l.ctx, comps[key(i)], data, attrs, true, 0) }
	}
	private := hdns.NewStore()
	// The rebind path's self times leave the 1-node top rung plus what a
	// second node and a WAL each add to the base.
	w, err := l.measureWith(wlHDNSWrite, func(s *set, i int) float64 {
		return s.ns["top"][i] + s.ns["replicated"][i] + s.ns["logged"][i] - 2*s.ns["base"][i]
	},
		probe{name: "top", f: func(i int) error { return ic.RebindAttrs(l.ctx, soloURLs[key(i)], value, benchAttrs) }},
		probe{name: "prov", f: func(i int) error { return spc.RebindAttrs(l.ctx, names[key(i)], value, benchAttrs) }},
		probe{name: "base", f: rebind(rawSolo)},
		probe{name: "replicated", f: rebind(raw)},
		probe{name: "logged", f: rebind(rawLogged)},
		echo,
	)
	if err != nil {
		return err
	}
	applyR, err := measure(normalOps, func(i int) error {
		_, _, errStr := private.ApplyVersioned(&hdns.Op{Kind: hdns.OpRebind, Name: comps[key(i)], Obj: data, Attrs: attrs, ReplaceAttrs: true})
		if errStr != "" {
			return fmt.Errorf("store apply: %s", errStr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("core.resolve_rebind_self", w.self("top", "prov"))
	l.put("hdnssp.rebind_self", w.self("prov", "base"))
	rebindSelf := w.self("base", "echo")
	rebindSelf.ns, rebindSelf.allocs = rebindSelf.ns-applyR.ns, rebindSelf.allocs-applyR.allocs
	l.put("hdns.rebind_self", rebindSelf)
	l.put("hdns.store_apply", applyR)
	l.put("jgroups.replicate_self", w.self("replicated", "base"))
	l.put("wal.path_self", w.self("logged", "base"))

	// Coalescing: 4 concurrent writers on the replicated group.
	hist := obs.Default.Histogram("gondi_hdns_repl_batch_ops", "")
	frames, ops := hist.Count(), hist.Sum()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				// A failure here would also fail the timed hdns_write
				// run; the burst only feeds the histogram.
				_ = raw.Rebind(l.ctx, comps[key(g*250+i)], data, attrs, true, 0)
			}
		}(g)
	}
	wg.Wait()
	mean := 0.0
	if df := hist.Count() - frames; df > 0 {
		// The histogram encodes an op count as microseconds.
		mean = float64((hist.Sum()-ops)/time.Microsecond) / float64(df)
	}
	l.count("hdns.repl_batch_ops_mean", mean, "count")
	return l.dnsRungs(ic, addr, urls)
}

// cacheRungs: cache.Cache.Wrap over the provider context for the hit
// path, the cached InitialContext above it with obs on and off, and a
// full cache cycling over more keys than it holds for the miss path.
func (l *ladder) cacheRungs(pc *hdnssp.Context, urls, names []string) error {
	c := cache.New(cache.Config{}, l.env)
	l.onClose(c.Close)
	cc := c.Wrap(pc)
	ic, err := core.Open(l.ctx, clientOptions(l.env, nil, true)...)
	if err != nil {
		return err
	}
	l.onClose(ic.Close)
	for i := 0; i < cacheKeys; i++ { // fill both
		if _, err := cc.Lookup(l.ctx, names[i]); err != nil {
			return err
		}
		if _, err := ic.Lookup(l.ctx, urls[i]); err != nil {
			return err
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(l.seed)), 1.1, 1, cacheKeys-1)
	cached := func(int) error { _, err := ic.Lookup(l.ctx, urls[zipf.Uint64()]); return err }
	r, err := l.measureWith(wlCacheHit, func(s *set, i int) float64 { return s.ns["top"][i] },
		probe{name: "hit", f: func(int) error { _, err := cc.Lookup(l.ctx, names[zipf.Uint64()]); return err }},
		probe{name: "top", f: cached},
		probe{name: "obs-off", f: cached, before: func() { obs.SetEnabled(false) }, after: func() { obs.SetEnabled(true) }},
	)
	if err != nil {
		return err
	}
	l.put("cache.hit", r.of("hit"))
	l.put("core.cached_resolve_self", r.self("top", "hit"))
	l.count("obs.overhead_ratio", r.of("top").ns/r.of("obs-off").ns, "ratio")

	small := cache.New(cache.Config{MaxEntries: cacheKeys}, l.env)
	l.onClose(small.Close)
	sc := small.Wrap(pc)
	m, err := measureSet(normalOps,
		probe{name: "miss", f: func(i int) error { _, err := sc.Lookup(l.ctx, names[i%ladderKeys]); return err }},
		probe{name: "prov", f: func(i int) error { _, err := pc.Lookup(l.ctx, names[i%ladderKeys]); return err }},
	)
	if err != nil {
		return err
	}
	l.put("cache.miss_fill_self", m.self("miss", "prov"))
	return nil
}

// dnsRungs: dnssrv.Resolver -> dnssp.Context, and the 2-hop continuation
// dns:// -> hdns:// against its two direct hops.
func (l *ladder) dnsRungs(ic *core.InitialContext, hdnsAddr string, hdnsURLs []string) error {
	srv, err := startDNS()
	if err != nil {
		return err
	}
	l.onClose(srv.Close)
	_, names, values := makeOps(opGetAttrs, l.seed, "dns", "", 0, ladderKeys)
	srv.AddZone(benchZone(hdnsAddr, names, values))
	res := dnssrv.NewResolver(srv.Addr())
	c, _, err := core.OpenURL(l.ctx, "dns://"+srv.Addr(), l.env)
	if err != nil {
		return err
	}
	dc, ok := obs.Uninstrument(c).(core.DirContext)
	if !ok {
		return fmt.Errorf("dns provider context is not a DirContext")
	}
	prefix := "dns://" + srv.Addr() + "/global/mathcs"
	key := func(i int) string { return keyName(i % ladderKeys) }
	r, err := measureSet(normalOps,
		probe{name: "exchange", f: func(i int) error { _, err := res.Query(l.ctx, key(i)+".svc.global", dnssrv.TypeANY); return err }},
		probe{name: "getattrs", f: func(i int) error { _, err := dc.GetAttributes(l.ctx, "global/svc/"+key(i)); return err }},
		probe{name: "two-hop", f: func(i int) error { _, err := ic.Lookup(l.ctx, prefix+"/"+key(i)); return err }},
		probe{name: "boundary", f: func(int) error { _, err := ic.Lookup(l.ctx, prefix); return err }},
		probe{name: "direct", f: func(i int) error { _, err := ic.Lookup(l.ctx, hdnsURLs[i%ladderKeys]); return err }},
	)
	if err != nil {
		return err
	}
	l.put("dnssrv.exchange", r.of("exchange"))
	l.put("dnssp.getattrs_self", r.self("getattrs", "exchange"))
	l.put("core.federation_hop_self", r.self("two-hop", "boundary", "direct"))
	l.e2e["dns.getattrs"] = r.of("getattrs")
	l.e2e["dns-hdns.lookup"] = r.of("two-hop")
	return nil
}

// jiniRungs: jini.Registrar -> jinisp.Context, relaxed and strict binds.
func (l *ladder) jiniRungs() error {
	lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0", Admission: controller("jini")})
	if err != nil {
		return err
	}
	l.onClose(lus.Close)
	n := mixKeys + mixWriteKeys // the registry size of federated_mix
	_, names, values := makeOps(opLookup, l.seed, "jini", "", 0, n)
	if err := seed(l.ctx, "jini://"+lus.Addr()+"/", l.env, names, values); err != nil {
		return err
	}
	reg, err := jini.DialRegistrar(lus.Addr(), 5*time.Second)
	if err != nil {
		return err
	}
	l.onClose(reg.Close)
	data, err := core.Marshal(values[0])
	if err != nil {
		return err
	}
	if _, err := reg.Register(l.ctx, jini.ServiceItem{ID: "ladder-raw", Service: data}, jini.MaxLease); err != nil {
		return err
	}
	tmpl := jini.ServiceTemplate{ID: "ladder-raw"}
	pc, err := jinisp.Open(l.ctx, lus.Addr(), poolEnv(l.env, "ladder-relaxed"))
	if err != nil {
		return err
	}
	l.onClose(pc.Close)
	r, err := measureSet(normalOps,
		probe{name: "raw", f: func(int) error { _, _, err := reg.LookupOne(l.ctx, tmpl); return err }},
		probe{name: "prov", f: func(i int) error { _, err := pc.Lookup(l.ctx, names[i%n]); return err }},
		probe{name: "relaxed", f: func(i int) error { return pc.RebindAttrs(l.ctx, names[i%n], values[i%n], benchAttrs) }},
	)
	if err != nil {
		return err
	}
	l.put("jini.lookup", r.of("raw"))
	l.put("jinisp.lookup_self", r.self("prov", "raw"))
	l.put("jinisp.relaxed_rebind", r.of("relaxed"))
	l.e2e["jini.lookup"] = r.of("prov")
	l.e2e["jini.rebind"] = r.of("relaxed")

	strictEnv := poolEnv(l.env, "ladder-strict")
	strictEnv[jinisp.EnvBind] = "strict"
	sc, err := jinisp.Open(l.ctx, lus.Addr(), strictEnv)
	if err != nil {
		return err
	}
	l.onClose(sc.Close)
	strict, err := measure(slowOps, func(i int) error { return sc.Rebind(l.ctx, names[i%n], values[i%n]) })
	if err != nil {
		return err
	}
	l.put("lock.strict_rebind", strict)
	return nil
}

// ldapRungs: ldapsrv.Conn -> ldapsp.Context.
func (l *ladder) ldapRungs() error {
	srv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: ldapBaseDN, Admission: controller("ldap")})
	if err != nil {
		return err
	}
	l.onClose(srv.Close)
	// The directory holds as many entries as in federated_mix: a search
	// costs in proportion to them.
	n := mixKeys + mixWriteKeys
	_, names, values := makeOps(opLookup, l.seed, "ldap", "", 0, n)
	if err := seed(l.ctx, "ldap://"+srv.Addr()+"/"+ldapBaseDN+"/", l.env, names, values); err != nil {
		return err
	}
	conn, err := ldapsrv.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		return err
	}
	l.onClose(conn.Close)
	if err := conn.Bind(l.ctx, "", ""); err != nil {
		return err
	}
	pc, err := ldapsp.Open(l.ctx, srv.Addr(), ldapBaseDN, poolEnv(l.env, "ladder-sp"))
	if err != nil {
		return err
	}
	l.onClose(pc.Close)
	base := &ldapsrv.SearchOptions{Scope: ldapsrv.ScopeBaseObject}
	r, err := measureSet(heavyOps,
		probe{name: "search", f: func(i int) error {
			es, err := conn.Search(l.ctx, "cn="+names[i%n]+","+ldapBaseDN, "(objectClass=*)", base)
			if err == nil && len(es) != 1 {
				err = fmt.Errorf("ldap search: %d entries", len(es))
			}
			return err
		}},
		probe{name: "lookup", f: func(i int) error { _, err := pc.Lookup(l.ctx, names[i%n]); return err }},
		probe{name: "rebind", f: func(i int) error { return pc.RebindAttrs(l.ctx, names[i%n], values[i%n], benchAttrs) }},
	)
	if err != nil {
		return err
	}
	l.put("ldapsrv.search", r.of("search"))
	l.put("ldapsp.lookup_self", r.self("lookup", "search"))
	l.put("ldapsp.rebind", r.of("rebind"))
	l.e2e["ldap.lookup"] = r.of("lookup")
	l.e2e["ldap.rebind"] = r.of("rebind")
	return nil
}

// mixSelfSum is what the ladder predicts a single caller pays end to end
// on federated_mix, which no one set decomposes: the provider-level rungs
// plus InitialContext resolution, weighted by the mix; the 2-hop and
// direct HDNS rungs already include it.
func (l *ladder) mixSelfSum() float64 {
	resolve := l.out["core.resolve_self_ns"].Value
	sum := 0.18 * (l.e2e["dns-hdns.lookup"].ns + l.e2e[wlHDNSRead].ns)
	for label, w := range map[string]float64{"jini.lookup": 0.18, "ldap.lookup": 0.18, "dns.getattrs": 0.18, "ldap.rebind": 0.05, "jini.rebind": 0.05} {
		sum += w * (resolve + l.e2e[label].ns)
	}
	return sum
}

// counterDelta sums every obs counter whose key starts with name.
func counterDelta(before, after map[string]int64, name string) float64 {
	var d int64
	for k, v := range after {
		if strings.HasPrefix(k, name) {
			d += v - before[k]
		}
	}
	return float64(d)
}

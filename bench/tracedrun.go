package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gondi/internal/obs"
)

const tracedOps = 20000 // ops of the span pass; --seconds/4 caps it on slow workloads

// pass is one single-client run over a world.
type pass struct {
	ops     uint64
	failed  uint64
	seconds float64
	// steadyNs is the median mean latency of consecutive 64-op batches,
	// the estimator the ladder's rungs use, so the two can be compared.
	steadyNs float64
	p50us    float64
	p99us    float64
}

// runPasses drives one client over w untraced and traced in alternating
// chunks, after an untimed warm-up, so the two passes see the same
// machine and the same warm caches. The passes draw from different seeds:
// replaying one key sequence twice would hand the second pass every key
// still hot from the first.
func runPasses(w *world, spans *spanLog, seed int64, maxOps uint64, maxDur time.Duration) (plain, traced pass, before, after sample) {
	const chunk = 4 // batches per turn
	ctx, cancel := context.WithTimeout(context.Background(), 2*maxDur+30*time.Second)
	defer cancel()
	clients := [2]*client{{pick: newPicker(w.groups, seed, 0, 1)}, {pick: newPicker(w.groups, ^seed, 0, 1)}}
	targets := [2]target{w.do, spans.traced(w.do)}
	var batches [2][]float64
	var elapsed [2]time.Duration

	warm := &client{pick: newPicker(w.groups, seed+1, 0, 1)}
	warm.runFor(ctx, w.do, maxDur/8, maxOps/8)

	before = takeSample()
	deadline := before.wall.Add(2 * maxDur)
	for mode := 0; clients[1].ok+clients[1].fail < maxOps && time.Now().Before(deadline); mode = 1 - mode {
		c := clients[mode]
		spans.on.Store(mode == 1)
		for b := 0; b < chunk; b++ {
			start, done := time.Now(), c.ok+c.fail
			c.runFor(ctx, targets[mode], time.Until(deadline), uint64(normalOps.batch))
			took := time.Since(start)
			elapsed[mode] += took
			if n := c.ok + c.fail - done; n > 0 {
				batches[mode] = append(batches[mode], float64(took.Nanoseconds())/float64(n))
			}
		}
	}
	spans.on.Store(false)
	after = takeSample()
	out := [2]pass{}
	for mode, c := range clients {
		p50, _ := c.lat.quantile(0.50)
		p99, _ := c.lat.quantile(0.99)
		out[mode] = pass{ops: c.ok, failed: c.fail + warm.fail*uint64(1-mode), seconds: elapsed[mode].Seconds(),
			steadyNs: median(batches[mode]), p50us: p50 / 1e3, p99us: p99 / 1e3}
	}
	return out[0], out[1], before, after
}

// runTraced is the traced run: a span pass over the workload with one
// client (so exactly one op is in flight), then the ladder. The timed
// rounds measure with all of this off.
func runTraced(cfg config, res *runResult) (driverLine, error) {
	spans := newSpanLog(4 * tracedOps)
	w, setup, err := timedBuild(cfg, worldOptions{middleware: &spanMiddleware{log: spans}, spans: spans})
	if err != nil {
		return driverLine{}, err
	}
	defer w.close()
	res.SetupS = []float64{setup}

	maxDur := time.Duration(cfg.seconds / 4 * float64(time.Second))
	obsBefore := obs.Default.Snapshot()
	plain, traced, before, after := runPasses(w, spans, cfg.seed, tracedOps, maxDur)
	obsAfter := obs.Default.Snapshot()

	if err := os.MkdirAll("out", 0o755); err != nil {
		return driverLine{}, err
	}
	spanFile := filepath.Join("out", "trace-"+cfg.workload+".json")
	if err := spans.write(spanFile); err != nil {
		return driverLine{}, err
	}

	writes := plain.ops + traced.ops
	rows := map[string]value{}
	put := func(name string, v float64, unit string) { rows[name] = value{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Counters of this workload's passes, read from obs.Default and the
	// interposed seams. They are 0 on a workload that does not reach the
	// layer.
	delta := func(name string) float64 { return counterDelta(obsBefore, obsAfter, name) }
	hits, misses := delta("gondi_cache_hits_total"), delta("gondi_cache_misses_total")
	put("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("cache.evictions", delta("gondi_cache_evictions_total"), "count")
	put("rpc.credit_stalls", delta("gondi_rpc_credit_stalls_total"), "count")
	put("admission.shed", delta("gondi_admission_shed_total"), "count")
	put("jgroups.send_stalls", delta("gondi_jgroups_send_stalls_total"), "count")
	put("wal.compactions", delta("gondi_hdns_wal_compactions_total"), "count")
	var msgs, bytes float64
	if w.name == wlHDNSWrite {
		msgs, bytes = float64(w.tr[0].data.Load()), float64(w.tr[0].bytes.Load())
		put("wal.write_amp", ratio(float64(w.fs.bytes.Load()), float64(writes)*payloadLen), "ratio")
		put("wal.fsyncs_per_1k_ops", ratio(float64(w.fs.syncs.Load())*1000, float64(writes)), "count")
	} else {
		put("wal.write_amp", 0, "ratio")
		put("wal.fsyncs_per_1k_ops", 0, "count")
	}
	put("jgroups.msgs_per_write", ratio(msgs, float64(writes)), "count")
	put("jgroups.bytes_per_write", ratio(bytes, float64(writes)), "bytes")

	// Runtime rows cover both passes: they alternate within one interval.
	cpu := (after.cpu - before.cpu).Seconds()
	put("runtime.gc_cycles_per_1k_ops", ratio(float64(after.gcCycles-before.gcCycles)*1000, float64(writes)), "count")
	put("runtime.gc_pause_ms", float64(after.gcPause-before.gcPause)/1e6, "ms")
	put("runtime.cpu_util", cpu/(plain.seconds+traced.seconds)/float64(runtime.GOMAXPROCS(0)), "ratio")
	put("client.ops_per_s", ratio(float64(plain.ops), plain.seconds), "1/s")
	put("client.lat_p50_us", plain.p50us, "us")
	put("client.lat_p99_us", plain.p99us, "us")
	put("client.cpu_us_per_op", ratio(cpu*1e6, float64(writes)), "us")

	// The ladder runs while the workload's world is still up: its own op
	// is one of the ladder's probes.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	pick := newPicker(w.groups, cfg.seed, 0, 1)
	lad, err := runLadder(ctx, cfg.seed, cfg.workload, func(int) error {
		_, op, alt := pick.next()
		return w.do(ctx, op, alt)
	})
	if err != nil {
		return driverLine{}, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range lad.out {
		rows[k] = v
	}
	res.SelfNoise = lad.noise
	sum := lad.selfSumNs
	if w.name == wlFederatedMix {
		// No single set decomposes this workload: hold the weighted sum
		// against the span pass, taken some seconds earlier.
		sum = lad.mixSelfSum()
		put("trace.e2e_ns", plain.steadyNs, "ns")
		put("trace.self_sum_ratio", ratio(sum, plain.steadyNs), "ratio")
	}

	checks := []check{{"no_failed_ops", plain.failed+traced.failed == 0,
		fmt.Sprintf("%d of %d ops failed", plain.failed+traced.failed, plain.ops+traced.ops+plain.failed+traced.failed)}}
	var st replicaState
	if w.name == wlHDNSWrite {
		var cs []check
		st, cs = w.checkReplicas(cfg.seed)
		checks = append(checks, cs...)
	}
	put("hdns.replica_divergent_keys", float64(st.divergent), "count")
	put("hdns.restore_ns_per_record", st.restoreNsPerR, "ns")
	if err := w.shutdown(); err != nil {
		checks = append(checks, check{"clean_close", false, err.Error()})
	}
	if w.name == wlHDNSWrite {
		checks = append(checks, w.checkRestoreAfterClose(st.version)...)
	}

	self, rootMean, roots := spans.selfTimes()
	var providerSelf float64
	for name, ns := range self {
		if strings.HasPrefix(name, "provider:") {
			providerSelf += ns
		}
	}
	e2eNs, sumRatio := rows["trace.e2e_ns"].Value, rows["trace.self_sum_ratio"].Value
	put("trace.root_self_ns", self[rootSpan], "ns")
	put("trace.provider_self_ns", providerSelf, "ns")
	put("trace.overhead_ratio", ratio(plain.steadyNs, traced.steadyNs), "ratio")
	if w.name == wlHDNSRead || w.name == wlCacheHit {
		checks = append(checks, check{"self_sum_within_10pct", math.Abs(sumRatio-1) <= 0.10,
			fmt.Sprintf("ladder self times add up to %.0f ns beside %.0f ns single-client end-to-end; round by round the ratio is %.3f", sum, e2eNs, sumRatio)})
	}

	res.Checks = checks
	res.PerLayer = rows
	line := driverLine{Correct: true, Attempted: plain.ops + plain.failed + traced.ops + traced.failed,
		Failed: plain.failed + traced.failed, Metrics: map[string]value{}}
	for _, c := range checks {
		line.Correct = line.Correct && c.OK
	}
	for _, d := range perLayer {
		v, ok := rows[d.Name]
		if !ok {
			return driverLine{}, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = value{v.Value, d.Unit}
	}

	printHeader(os.Stdout, res, "traced, 1 client")
	fmt.Printf("span pass: %d ops untraced at %.0f ns/op and %d traced at %.0f ns/op (medians of 64-op batches, alternating); %d root spans, mean %.0f ns; spans in bench/%s\n",
		plain.ops, plain.steadyNs, traced.ops, traced.steadyNs, roots, rootMean, spanFile)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  self %-22s %12.0f ns/op\n", name, self[name])
	}
	fmt.Printf("%-34s %-7s %14s\n", "per-layer metric", "unit", "value")
	for _, d := range perLayer {
		fmt.Printf("%-34s %-7s %14.4f", d.Name, d.Unit, rows[d.Name].Value)
		if noise, ok := lad.noise[d.Name]; ok {
			fmt.Printf("  +- %.0f", noise)
			if math.Abs(rows[d.Name].Value) < 2*noise {
				fmt.Print("  unresolved")
			}
		}
		fmt.Println()
	}
	fmt.Printf("sum of ladder self times on %s: %.0f ns beside %.0f ns single-client end-to-end (ratio %.3f, round by round where one set holds both)\n",
		cfg.workload, sum, e2eNs, sumRatio)
	fmt.Println("wal.sync_ns is an fsync into the sandbox's page cache, not to a device")
	printChecks(os.Stdout, checks)
	return line, nil
}

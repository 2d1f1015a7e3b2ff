package main

// metricDef names one end-to-end metric: its unit, direction and the
// bound by which it may worsen before a change counts as a regression — a
// share of the baseline median, or an absolute difference for a metric
// whose baseline is 0.
type metricDef struct {
	Name     string
	Unit     string
	Higher   bool // true when a higher value is better
	Bound    float64
	Absolute bool // Bound is a difference, not a share
	// Driver marks the metrics BENCHMARK.json lists and the result line
	// carries: those this sandbox repeats well enough for the driver's
	// rule (ten runs on ten seeds scatter by less than a third of the
	// bound, and no bound is above 25 %). The others are measured, printed
	// and compared by -compare all the same. A test keeps BENCHMARK.json
	// in step.
	Driver bool
	// round extracts the metric from one timed round; nil for metrics
	// taken once per run (setup_s, rss_peak_mb).
	round func(roundResult) float64
	// perOp marks a count per op. Its value for a run is the total over
	// all rounds ÷ their ops, not the median of the rounds' ratios: a
	// round of hdns_write that holds a compaction allocates 5 % more
	// bytes per op, and whether two or three of the five rounds hold one
	// would flip a median by that much.
	perOp bool
}

// Every value is as the clock, getrusage and MemStats read it. Bounds are
// ISSUE.md's, except setup_s (20 %) and rss_peak_mb (10 %): in
// BENCHMARK.json a bound is at least three times the metric's ten-run
// scatter, which is up to 13 % and 9 % for them. No bound the driver allows
// fits the wall-clock metrics: ten runs scatter by 6-35 % depending on the
// hour, and medians an hour apart differ by 30-40 % (README, "Bounds").
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.10, round: func(r roundResult) float64 { return r.OpsPerS }},
	{Name: "lat_p50_us", Unit: "us", Bound: 0.10, round: func(r roundResult) float64 { return r.LatP50us }},
	{Name: "lat_p99_us", Unit: "us", Bound: 0.10, round: func(r roundResult) float64 { return r.LatP99us }},
	{Name: "cpu_us_per_op", Unit: "us", Bound: 0.10, round: func(r roundResult) float64 { return r.CPUusPerOp }},
	{Name: "allocs_per_op", Unit: "count", Bound: 0.02, Driver: true, perOp: true, round: func(r roundResult) float64 { return r.AllocsPerOp }},
	{Name: "alloc_bytes_per_op", Unit: "bytes", Bound: 0.02, Driver: true, perOp: true, round: func(r roundResult) float64 { return r.AllocBytesPerOp }},
	{Name: "fail_ratio", Unit: "ratio", Bound: 0.001, Absolute: true, round: func(r roundResult) float64 { return r.FailRatio }},
	{Name: "setup_s", Unit: "s", Bound: 0.25, Driver: true},
	{Name: "rss_peak_mb", Unit: "MB", Bound: 0.25, Driver: true},
}

// overRun is the value of a per-round metric for a whole run.
func (m metricDef) overRun(rounds []roundResult) float64 {
	if !m.perOp {
		return median(overRounds(rounds, m.round))
	}
	var total, ops float64
	for _, r := range rounds {
		total += m.round(r) * float64(r.Ops)
		ops += float64(r.Ops)
	}
	return total / max(ops, 1)
}

// driverMetrics are the end-to-end metrics BENCHMARK.json lists and the
// result line carries. fail_ratio cannot be one (the driver's metrics are
// never 0): it reaches the driver as the line's failed and attempted.
func driverMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Driver {
			out = append(out, m)
		}
	}
	return out
}

// value is one reported number with its unit, the shape the driver's
// result line uses.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerDef names one per-layer metric. Ladder rows come in pairs: every
// *_ns has a sibling *_allocs. Per-layer metrics have no bound.
type layerDef struct {
	Name, Unit string
	Higher     bool // true when a higher value is better
}

func ladderPair(name string) []layerDef {
	return []layerDef{{Name: name + "_ns", Unit: "ns"}, {Name: name + "_allocs", Unit: "allocs"}}
}

// perLayer is every metric the traced run prints, grouped by layer
// (module name). BENCHMARK.json repeats the names; a test keeps the two
// in step.
var perLayer = func() []layerDef {
	var d []layerDef
	for _, n := range []string{
		"core.parse_url", "core.resolve_self", "core.resolve_rebind_self", "core.cached_resolve_self", "core.federation_hop_self",
		"cache.hit", "cache.miss_fill_self",
		"hdnssp.lookup_self", "hdnssp.rebind_self",
		"hdns.lookup_self", "hdns.rebind_self", "hdns.batch_lookup_per_item", "hdns.store_lookup", "hdns.store_apply",
		"rpc.call", "rpc.call_small", "rpc.batch_per_item",
		"admission.admit",
		"jgroups.replicate_self",
		"wal.append", "wal.sync", "wal.path_self",
		"jini.lookup", "jinisp.lookup_self", "jinisp.relaxed_rebind", "lock.strict_rebind",
		"dnssrv.exchange", "dnssp.getattrs_self",
		"ldapsrv.search", "ldapsp.lookup_self", "ldapsp.rebind",
	} {
		d = append(d, ladderPair(n)...)
	}
	lower := func(name, unit string) layerDef { return layerDef{Name: name, Unit: unit} }
	higher := func(name, unit string) layerDef { return layerDef{Name: name, Unit: unit, Higher: true} }
	return append(d,
		higher("cache.hit_ratio", "ratio"), lower("cache.evictions", "count"),
		lower("obs.overhead_ratio", "ratio"),
		higher("hdns.repl_batch_ops_mean", "count"), lower("hdns.replica_divergent_keys", "count"),
		lower("hdns.restore_ns_per_record", "ns"),
		higher("rpc.pipeline_speedup", "ratio"), lower("rpc.credit_stalls", "count"),
		lower("admission.shed", "count"),
		lower("jgroups.msgs_per_write", "count"), lower("jgroups.bytes_per_write", "bytes"), lower("jgroups.send_stalls", "count"),
		lower("wal.write_amp", "ratio"), lower("wal.fsyncs_per_1k_ops", "count"), lower("wal.compactions", "count"),
		lower("runtime.gc_cycles_per_1k_ops", "count"), lower("runtime.gc_pause_ms", "ms"), higher("runtime.cpu_util", "ratio"),
		// What the traced run's one client saw with tracing off (CPU: over
		// both passes, which alternate).
		higher("client.ops_per_s", "1/s"), lower("client.lat_p50_us", "us"), lower("client.lat_p99_us", "us"), lower("client.cpu_us_per_op", "us"),
		lower("trace.e2e_ns", "ns"), lower("trace.root_self_ns", "ns"), lower("trace.provider_self_ns", "ns"),
		// 1 = the ladder's self times add up to the end-to-end latency;
		// 1 = tracing costs nothing.
		higher("trace.self_sum_ratio", "ratio"), higher("trace.overhead_ratio", "ratio"),
	)
}()

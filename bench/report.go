package main

import (
	"fmt"
	"io"
)

func printHeader(w io.Writer, res *runResult, mode string) {
	fmt.Fprintf(w, "\n== %s (%s) seed=%d nproc=%d GOMAXPROCS=clients=%d %s ==\n",
		res.Workload, mode, res.Seed, res.Nproc, res.GOMAXPROCS, res.GoVersion)
	fmt.Fprintln(w, "conditions: in-process servers, loopback sockets (not a link), nil cost model, admission on, obs on; fsync hits the page cache, not a device")
}

func printChecks(w io.Writer, checks []check) {
	for _, c := range checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
}

// printTimed prints every end-to-end metric by name and unit: the median
// over rounds, the per-round values, and the sample counts behind the
// percentiles.
func printTimed(w io.Writer, res *runResult, groups []opGroup) {
	printHeader(w, res, fmt.Sprintf("timed, %d rounds x %.1f s", rounds, res.RoundSeconds))
	load := res.Load
	row := func(name, unit string, med float64, each []float64, note string) {
		fmt.Fprintf(w, "%-20s %-6s %14.4f  ", name, unit, med)
		for _, v := range each {
			fmt.Fprintf(w, " %.4g", v)
		}
		fmt.Fprintln(w, note)
	}
	fmt.Fprintf(w, "%-20s %-6s %14s   per round\n", "metric", "unit", "over the run")
	for _, m := range endToEnd {
		note := ""
		if m.Driver {
			note = "   [in BENCHMARK.json]"
		}
		row(m.Name, m.Unit, res.EndToEnd[m.Name], res.samples(m), note)
	}
	fmt.Fprintln(w, "over the run: the median of the rounds; for the counts per op, their total over all rounds / ops; for setup_s, the fastest set-up")
	var ops uint64
	minBeyond := ^uint64(0)
	for _, r := range load.Rounds {
		ops += r.Ops
		minBeyond = min(minBeyond, r.BeyondP99)
	}
	fmt.Fprintf(w, "samples: %d ops over %d rounds; every per-round p99 has >= %d samples beyond it\n", ops, len(load.Rounds), minBeyond)
	fmt.Fprintf(w, "failed: %d of %d attempted, warm-up included\n", load.Failed, load.Attempted)
	fmt.Fprintf(w, "runtime: cpu_util %.3f, %.1f GC cycles and %.2f ms GC pause per round (medians)\n",
		median(overRounds(load.Rounds, func(r roundResult) float64 { return r.CPUUtil })),
		median(overRounds(load.Rounds, func(r roundResult) float64 { return float64(r.GCCycles) })),
		median(overRounds(load.Rounds, func(r roundResult) float64 { return r.GCPauseMs })))
	if len(groups) > 1 {
		fmt.Fprint(w, "op mix:")
		for i, g := range groups {
			fmt.Fprintf(w, " %s=%d", g.label, load.PerGroup[i])
		}
		fmt.Fprintln(w)
	}
	printChecks(w, res.Checks)
}

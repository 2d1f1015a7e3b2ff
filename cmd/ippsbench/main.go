// Command ippsbench regenerates the paper's evaluation (Figures 2–7) and
// the design-choice ablations, printing each figure as a table of
// ops/second per client count.
//
// Usage:
//
//	ippsbench                 # all figures, paper client sweep
//	ippsbench -fig 5          # one figure
//	ippsbench -exp ablation-queue
//	ippsbench -quick          # short sweep and windows (smoke run)
//	ippsbench -clients 1,10,50 -warm 2s -measure 3s
//
// Absolute numbers depend on the calibrated cost model (see DESIGN.md);
// the curve shapes — who saturates where, the strict-bind penalty, the
// HDNS overload collapse, the OpenLDAP read plateau — are the result.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gondi/internal/benchmark"
)

func main() {
	fig := flag.Int("fig", 0, "run a single figure (2-7)")
	exp := flag.String("exp", "", "run a single experiment by ID (fig2..fig7, ablation-*)")
	quick := flag.Bool("quick", false, "short sweep for a fast smoke run")
	clientsFlag := flag.String("clients", "", "comma-separated client counts (overrides the sweep)")
	warm := flag.Duration("warm", 0, "warmup per point (0 = per-experiment default)")
	measure := flag.Duration("measure", 0, "measurement window per point (0 = per-experiment default)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range benchmark.OrderedIDs {
			fmt.Println(id)
		}
		return
	}

	opts := benchmark.DefaultOptions()
	if *quick {
		opts = benchmark.QuickOptions()
	}
	if *clientsFlag != "" {
		var cs []int
		for _, part := range strings.Split(*clientsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "ippsbench: bad client count %q\n", part)
				os.Exit(2)
			}
			cs = append(cs, n)
		}
		opts.Clients = cs
	}
	if *warm > 0 {
		opts.Warmup = *warm
	}
	if *measure > 0 {
		opts.Measure = *measure
	}

	ids := benchmark.OrderedIDs
	switch {
	case *fig != 0:
		ids = []string{fmt.Sprintf("fig%d", *fig)}
	case *exp != "":
		ids = []string{*exp}
	}

	for _, id := range ids {
		run, ok := benchmark.Experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "ippsbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		o := opts
		// The strict-bind series queues deeply at high client counts;
		// it needs the pipeline to fill before measuring (see
		// EXPERIMENTS.md).
		if id == "fig3" && *warm == 0 && !*quick {
			o.Warmup = 8 * time.Second
		}
		if id == "fig3" && *measure == 0 && !*quick {
			o.Measure = 4 * time.Second
		}
		start := time.Now()
		e, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ippsbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		e.Print(os.Stdout)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Second))
	}
}

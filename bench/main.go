// Command bench is the real-cost benchmark of gondi: it starts the real
// servers in-process with no cost model, drives them over loopback
// sockets through the federated API (core.Open -> InitialContext),
// verifies every result and prints every metric by name and unit.
// See README.md for the workloads, metrics and stated conditions.
//
//	go run -C bench .                              # all four workloads
//	go run -C bench . -workload hdns_read          # one workload
//	go run -C bench . -workload hdns_read -trace 1 # traced run + layer ladder
//	go run -C bench . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

const (
	timedSetups = 4               // world set-ups of a timed run; setup_s is the fastest
	warmup      = 3 * time.Second // untimed load before the rounds
)

func main() {
	var cfg config
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all four, one process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op sequence and payloads")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per workload, split into 5 rounds")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced single-client run and per-layer ladder instead of the timed rounds")
	flag.StringVar(&cfg.out, "out", "", "also write the detailed result as JSON to this file")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if cfg.workload == "" {
		if err := runAll(cfg); err != nil {
			fatal(err)
		}
		return
	}
	ok, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// procs is both GOMAXPROCS and the client count: C = min(nproc, 4).
func procs() int { return min(runtime.NumCPU(), 4) }

// runResult is the detailed record of one workload run, the unit
// -compare reads.
type runResult struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Nproc        int       `json:"nproc"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	GoVersion    string    `json:"go_version"`
	RoundSeconds float64   `json:"round_seconds"`
	SetupS       []float64 `json:"setup_s"`

	Load     *loadResult        `json:"load,omitempty"`
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]value   `json:"per_layer,omitempty"`
	// SelfNoise holds, per *_self_ns row of PerLayer, the standard error
	// of the median it is; a row within two of it of 0 is unresolved.
	SelfNoise map[string]float64 `json:"self_noise_ns,omitempty"`
	Checks    []check            `json:"checks"`
	Correct   bool               `json:"correct"`
}

// resultFile is what a whole `go run -C bench .` writes.
type resultFile struct {
	Claim     *string     `json:"claim"` // this benchmark claims no gain: null
	Workloads []runResult `json:"workloads"`
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runAll re-executes this binary once per workload, so rss_peak_mb, GC
// state and allocation counts belong to one workload each.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	var file resultFile
	failed := false
	for _, name := range workloadNames {
		part := filepath.Join("out", "result-"+name+".json")
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(cfg.trace), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			if _, exited := err.(*exec.ExitError); !exited {
				return err
			}
			failed = true
		}
		b, err := os.ReadFile(part)
		if err != nil {
			return err
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", part, err)
		}
		file.Workloads = append(file.Workloads, r)
	}
	out := cfg.out
	if out == "" {
		out = filepath.Join("out", "results.json")
	}
	if err := writeJSON(out, file); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", out)
	if failed {
		return fmt.Errorf("a workload failed its checks")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload runs one workload in this process and prints its report,
// ending with the driver's result line.
func runWorkload(cfg config) (bool, error) {
	runtime.GOMAXPROCS(procs())
	registerProviders()
	res := runResult{
		Workload: cfg.workload, Seed: cfg.seed, Nproc: runtime.NumCPU(), GOMAXPROCS: procs(),
		GoVersion: runtime.Version(), RoundSeconds: cfg.seconds / rounds,
	}
	var line driverLine
	var err error
	if cfg.trace != 0 {
		line, err = runTraced(cfg, &res)
	} else {
		line, err = runTimed(cfg, &res)
	}
	if err != nil {
		return false, err
	}
	res.Correct = line.Correct
	if cfg.out != "" {
		if err := writeJSON(cfg.out, res); err != nil {
			return false, err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return line.Correct, nil
}

// timedBuild is buildWorld with the clock setup_s reads.
func timedBuild(cfg config, opt worldOptions) (*world, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	w, err := buildWorld(ctx, cfg.workload, cfg.seed, opt)
	return w, time.Since(start).Seconds(), err
}

// peakRSS is the peak resident set of this process image, VmHWM of
// /proc/self/status. getrusage's ru_maxrss would not do: it carries the
// peak of the program that exec'd this one, `go run`.
func peakRSS() (mb float64, err error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

func runTimed(cfg config, res *runResult) (driverLine, error) {
	w, setup, err := timedBuild(cfg, worldOptions{})
	if err != nil {
		return driverLine{}, err
	}
	defer w.close()
	res.SetupS = []float64{setup}

	round := time.Duration(cfg.seconds / rounds * float64(time.Second))
	load := runLoad(w.groups, w.do, cfg.seed, procs(), warmup, round)
	res.Load = &load
	// The peak belongs to the workload: one world, read before the checks
	// restore stores and before the further set-ups.
	rss, err := peakRSS()
	if err != nil {
		return driverLine{}, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	checks := []check{{"no_failed_ops", load.Failed == 0,
		fmt.Sprintf("%d of %d ops failed, %d with a wrong payload (first error: %s)", load.Failed, load.Attempted, load.Wrong, load.FirstErr)}}
	checks = append(checks, w.checkWrites(ctx)...)
	if w.name == wlHDNSWrite {
		st, cs := w.checkReplicas(cfg.seed)
		checks = append(checks, cs...)
		if err := w.shutdown(); err != nil {
			checks = append(checks, check{"clean_close", false, err.Error()})
		}
		checks = append(checks, w.checkRestoreAfterClose(st.version)...)
	} else if err := w.shutdown(); err != nil {
		checks = append(checks, check{"clean_close", false, err.Error()})
	}
	res.Checks = checks

	// setup_s is the fastest of several set-ups: what the sandbox's other
	// tenants do to a 2 s set-up only ever adds time. The further ones
	// come after the measurement, so the rounds ran in a process that had
	// built one world and nothing else.
	for len(res.SetupS) < timedSetups {
		again, s, err := timedBuild(cfg, worldOptions{})
		if err != nil {
			return driverLine{}, err
		}
		res.SetupS = append(res.SetupS, s)
		if err := again.close(); err != nil {
			return driverLine{}, fmt.Errorf("closing world %d: %w", len(res.SetupS), err)
		}
	}

	res.EndToEnd = map[string]float64{}
	for _, m := range endToEnd {
		switch {
		case m.round != nil:
			res.EndToEnd[m.Name] = m.overRun(load.Rounds)
		case m.Name == "setup_s":
			res.EndToEnd[m.Name] = slices.Min(res.SetupS)
		case m.Name == "rss_peak_mb":
			res.EndToEnd[m.Name] = rss
		}
	}

	line := driverLine{Correct: true, Attempted: load.Attempted, Failed: load.Failed, Metrics: map[string]value{}}
	for _, c := range checks {
		line.Correct = line.Correct && c.OK
	}
	for _, m := range driverMetrics() {
		line.Metrics[m.Name] = value{res.EndToEnd[m.Name], m.Unit}
	}
	printTimed(os.Stdout, res, w.groups)
	return line, nil
}

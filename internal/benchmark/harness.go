// Package benchmark regenerates the paper's evaluation (§7, Figures 2–7):
// closed-loop throughput of the four naming services accessed raw and
// through their JNDI providers, under 1–100 client threads issuing
// requests with 50 ms think time (≤20 Hz per thread). Calibrated service
// costs (internal/costmodel), charged by each server's request pipeline,
// stand in for the 2005 testbed hardware; see DESIGN.md and EXPERIMENTS.md.
package benchmark

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ThinkTime is the paper's inter-request pause (§7: "50 ms pauses
// between requests (i.e. with the frequency of up to 20 Hz)").
const ThinkTime = 50 * time.Millisecond

// DefaultClients is the paper's client-thread sweep (1 to 100).
var DefaultClients = []int{1, 2, 5, 10, 20, 40, 60, 80, 100}

// QuickClients is a shorter sweep for smoke runs and testing.B.
var QuickClients = []int{1, 5, 20, 60}

// DefaultOpTimeout bounds a single client operation when Options.OpTimeout
// is zero. A closed-loop client that hangs forever would otherwise wedge
// its thread for the rest of the sweep and silently flatten the curve.
const DefaultOpTimeout = 2 * time.Second

// Options tunes a run.
type Options struct {
	Clients []int
	Warmup  time.Duration
	Measure time.Duration
	// OpTimeout is the per-operation deadline handed to each client op
	// as a context; zero means DefaultOpTimeout.
	OpTimeout time.Duration
}

// DefaultOptions mirror the paper's sweep with short windows suitable for
// regenerating curve shapes in seconds per point.
func DefaultOptions() Options {
	return Options{Clients: DefaultClients, Warmup: 400 * time.Millisecond, Measure: 1600 * time.Millisecond}
}

// QuickOptions are for smoke tests.
func QuickOptions() Options {
	return Options{Clients: QuickClients, Warmup: 200 * time.Millisecond, Measure: 600 * time.Millisecond}
}

// Point is one measured sweep point.
type Point struct {
	Clients   int
	OpsPerSec float64
	Errors    int64
}

// Series is one labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// ClientFactory builds the per-thread operation for one sweep point. It
// returns the operation closure and a cleanup. Each client thread gets
// its own op (own connection, own lock slot, ...). The op receives a
// fresh per-call context carrying the sweep's operation deadline.
type ClientFactory func(client int) (op func(ctx context.Context) error, cleanup func(), err error)

// RunClosedLoop measures one sweep point: n client threads issuing op,
// pausing ThinkTime between requests, counting completions inside the
// measure window. Each op call runs under its own opTimeout deadline
// (DefaultOpTimeout when zero), so one wedged backend cannot stall a
// client thread past the window.
func RunClosedLoop(n int, warmup, measure, opTimeout time.Duration, factory ClientFactory) (Point, error) {
	if opTimeout <= 0 {
		opTimeout = DefaultOpTimeout
	}
	type client struct {
		op      func(ctx context.Context) error
		cleanup func()
	}
	clients := make([]client, 0, n)
	defer func() {
		for _, c := range clients {
			if c.cleanup != nil {
				c.cleanup()
			}
		}
	}()
	for i := 0; i < n; i++ {
		op, cleanup, err := factory(i)
		if err != nil {
			return Point{}, fmt.Errorf("benchmark: client %d: %w", i, err)
		}
		clients = append(clients, client{op, cleanup})
	}

	var completed, failed atomic.Int64
	var measuring atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
			// Stagger starts so the closed loop does not proceed in
			// lockstep bursts (real clients desynchronize naturally).
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(rng.Int63n(int64(ThinkTime)))):
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				octx, cancel := context.WithTimeout(context.Background(), opTimeout)
				err := c.op(octx)
				cancel()
				if measuring.Load() {
					if err == nil {
						completed.Add(1)
					} else {
						failed.Add(1)
					}
				}
				// Think time with ±25% jitter around the paper's pause.
				pause := ThinkTime*3/4 + time.Duration(rng.Int63n(int64(ThinkTime)/2))
				select {
				case <-stop:
					return
				case <-time.After(pause):
				}
			}
		}(i, clients[i])
	}
	time.Sleep(warmup)
	measuring.Store(true)
	start := time.Now()
	time.Sleep(measure)
	measuring.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	return Point{
		Clients:   n,
		OpsPerSec: float64(completed.Load()) / elapsed.Seconds(),
		Errors:    failed.Load(),
	}, nil
}

// Sweep runs a full curve.
func Sweep(label string, opts Options, factory ClientFactory) (Series, error) {
	s := Series{Label: label}
	for _, n := range opts.Clients {
		p, err := RunClosedLoop(n, opts.Warmup, opts.Measure, opts.OpTimeout, factory)
		if err != nil {
			return s, err
		}
		s.Points = append(s.Points, p)
	}
	return s, nil
}

// Experiment is one regenerated figure.
type Experiment struct {
	ID     string // "fig2"
	Title  string
	Series []Series
}

// Print renders the experiment as aligned columns, one row per client
// count — the same rows/series the paper's figures plot.
func (e *Experiment) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "%-8s %-8s", "clients", "ideal")
	for _, s := range e.Series {
		fmt.Fprintf(w, " %-18s", s.Label)
	}
	fmt.Fprintln(w)
	counts := map[int]bool{}
	for _, s := range e.Series {
		for _, p := range s.Points {
			counts[p.Clients] = true
		}
	}
	var rows []int
	for c := range counts {
		rows = append(rows, c)
	}
	sort.Ints(rows)
	for _, n := range rows {
		fmt.Fprintf(w, "%-8d %-8d", n, 20*n)
		for _, s := range e.Series {
			v := "-"
			for _, p := range s.Points {
				if p.Clients == n {
					v = fmt.Sprintf("%.0f", p.OpsPerSec)
					if p.Errors > 0 {
						v += fmt.Sprintf(" (%de)", p.Errors)
					}
				}
			}
			fmt.Fprintf(w, " %-18s", v)
		}
		fmt.Fprintln(w)
	}
}

// PeakOps returns the series' maximum throughput.
func (s Series) PeakOps() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.OpsPerSec > max {
			max = p.OpsPerSec
		}
	}
	return max
}

// At returns the throughput at a given client count (0 if absent).
func (s Series) At(clients int) float64 {
	for _, p := range s.Points {
		if p.Clients == clients {
			return p.OpsPerSec
		}
	}
	return 0
}

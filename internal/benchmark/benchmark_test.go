package benchmark

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"
)

// shapeOptions trade precision for speed; shape assertions below use
// generous margins accordingly.
func shapeOptions() Options {
	return Options{
		Clients: []int{1, 5, 20, 60, 100},
		Warmup:  250 * time.Millisecond,
		Measure: 900 * time.Millisecond,
	}
}

func find(e *Experiment, label string) Series {
	for _, s := range e.Series {
		if s.Label == label {
			return s
		}
	}
	return Series{}
}

func TestHarnessClosedLoop(t *testing.T) {
	// A no-op workload must track the ideal 20 Hz per-thread line.
	p, err := RunClosedLoop(5, 100*time.Millisecond, 500*time.Millisecond, 0,
		func(int) (func(ctx context.Context) error, func(), error) {
			return func(context.Context) error { return nil }, nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p.OpsPerSec < 60 || p.OpsPerSec > 110 {
		t.Errorf("no-op throughput = %.0f, want ≈100 (5 clients × 20 Hz)", p.OpsPerSec)
	}
	if p.Errors != 0 {
		t.Errorf("errors = %d", p.Errors)
	}
}

func TestHarnessErrorsCounted(t *testing.T) {
	boom := errors.New("boom")
	p, err := RunClosedLoop(2, 50*time.Millisecond, 300*time.Millisecond, 0,
		func(int) (func(ctx context.Context) error, func(), error) {
			return func(context.Context) error { return boom }, nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p.Errors == 0 || p.OpsPerSec != 0 {
		t.Errorf("point = %+v", p)
	}
}

func TestHarnessFactoryFailure(t *testing.T) {
	_, err := RunClosedLoop(1, 10*time.Millisecond, 10*time.Millisecond, 0,
		func(int) (func(ctx context.Context) error, func(), error) {
			return nil, nil, errors.New("cannot connect")
		})
	if err == nil {
		t.Fatal("factory failure not propagated")
	}
}

// TestFig2Shape checks Figure 2's qualitative claims: raw Jini saturates
// a few hundred ops/s, the SPI costs ≈20-35%, and strict == relaxed on
// reads.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	e, err := RunFig2(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	raw := find(e, "jini").PeakOps()
	relaxed := find(e, "jini-spi-relaxed").PeakOps()
	strict := find(e, "jini-spi-strict").PeakOps()
	if raw < 250 || raw > 600 {
		t.Errorf("raw peak = %.0f, want ≈400", raw)
	}
	if relaxed >= raw {
		t.Errorf("SPI (%.0f) not below raw (%.0f)", relaxed, raw)
	}
	penalty := 1 - relaxed/raw
	if penalty < 0.10 || penalty > 0.45 {
		t.Errorf("SPI penalty = %.0f%%, want ≈25%%", penalty*100)
	}
	// Reads: strict and relaxed within 15%.
	if strict < relaxed*0.85 || strict > relaxed*1.15 {
		t.Errorf("strict reads (%.0f) differ from relaxed (%.0f)", strict, relaxed)
	}
}

// TestFig3Shape checks Figure 3: raw > relaxed > strict, with strict
// several times below relaxed (the locking cost).
func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	e, err := RunFig3(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	raw := find(e, "jini").PeakOps()
	relaxed := find(e, "jini-spi-relaxed").PeakOps()
	strict := find(e, "jini-spi-strict").PeakOps()
	if raw < 90 || raw > 250 {
		t.Errorf("raw write peak = %.0f, want ≈140", raw)
	}
	if !(raw > relaxed && relaxed > strict) {
		t.Errorf("ordering violated: raw %.0f, relaxed %.0f, strict %.0f", raw, relaxed, strict)
	}
	ratio := relaxed / strict
	if ratio < 2.5 {
		t.Errorf("relaxed/strict = %.1f, want several-fold (paper ≈7x at peak)", ratio)
	}
}

// TestFig4Shape checks Figure 4: HDNS reads track the ideal line and the
// SPI adds no visible overhead.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	e, err := RunFig4(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	raw := find(e, "hdns")
	spi := find(e, "hdns-spi")
	if raw.PeakOps() < 1200 {
		t.Errorf("HDNS read peak = %.0f, want >=1200", raw.PeakOps())
	}
	// Near-ideal at 60 clients (ideal 1200).
	if raw.At(60) < 800 {
		t.Errorf("HDNS at 60 clients = %.0f, want near-ideal 1200", raw.At(60))
	}
	// SPI within 20% of raw.
	if spi.PeakOps() < raw.PeakOps()*0.8 {
		t.Errorf("SPI (%.0f) far below raw (%.0f)", spi.PeakOps(), raw.PeakOps())
	}
}

// TestFig5Shape checks Figure 5: write peak in the low hundreds and a
// collapse (not a plateau) past ~20 clients.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	e, err := RunFig5(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	raw := find(e, "hdns")
	peak := raw.PeakOps()
	if peak < 90 || peak > 320 {
		t.Errorf("write peak = %.0f, want ≈200", peak)
	}
	// Collapse: throughput at 100 clients well below the peak.
	if at100 := raw.At(100); at100 > peak*0.6 {
		t.Errorf("no collapse: at 100 clients %.0f vs peak %.0f", at100, peak)
	}
}

// TestFig6Shape checks Figure 6: DNS reads track the ideal line.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	e, err := RunFig6(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	s := find(e, "dns")
	if s.PeakOps() < 1200 {
		t.Errorf("DNS peak = %.0f, want >=1200", s.PeakOps())
	}
	if s.At(60) < 800 {
		t.Errorf("DNS at 60 = %.0f, want near 1200", s.At(60))
	}
}

// TestFig7Shape checks Figure 7: the read plateau near the throttle and
// writes crossing above it at high client counts.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	e, err := RunFig7(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	read := find(e, "lookup")
	write := find(e, "rebind")
	// Plateau: at 60 and 100 clients the read stays near 800 despite
	// offered loads of 1200/2000.
	for _, n := range []int{60, 100} {
		if v := read.At(n); v < 550 || v > 1000 {
			t.Errorf("read at %d clients = %.0f, want ≈800 plateau", n, v)
		}
	}
	// Writes exceed the read plateau at 100 clients.
	if write.At(100) < read.At(100) {
		t.Errorf("write (%.0f) below read plateau (%.0f) at 100 clients",
			write.At(100), read.At(100))
	}
}

// TestAblationQueueBound checks that bounding the queue removes the
// collapse (throughput levels off instead of declining).
func TestAblationQueueBound(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	e, err := RunAblationQueueBound(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	unbounded := find(e, "unbounded")
	bounded := find(e, "bounded")
	// The bounded variant must hold its throughput at 100 clients.
	if bounded.At(100) < bounded.PeakOps()*0.6 {
		t.Errorf("bounded collapsed: %.0f vs peak %.0f", bounded.At(100), bounded.PeakOps())
	}
	if unbounded.At(100) > bounded.At(100) {
		t.Errorf("unbounded (%.0f) outperformed bounded (%.0f) under overload",
			unbounded.At(100), bounded.At(100))
	}
}

// TestFederationDepthAblation checks the per-hop cost ordering.
func TestFederationDepthAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	if raceEnabled {
		t.Skip("throughput shapes are calibrated for non-instrumented builds")
	}
	opts := Options{Clients: []int{4}, Warmup: 150 * time.Millisecond, Measure: 700 * time.Millisecond}
	e, err := RunAblationFederationDepth(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Print(os.Stderr)
	for _, s := range e.Series {
		if len(s.Points) == 0 || s.Points[0].OpsPerSec == 0 {
			t.Errorf("series %s produced no throughput", s.Label)
		}
		if s.Points[0].Errors > 0 {
			t.Errorf("series %s had %d errors", s.Label, s.Points[0].Errors)
		}
	}
}

func TestHarnessOpTimeout(t *testing.T) {
	// An op that never returns on its own must be cut loose by the
	// per-operation deadline instead of wedging its client thread.
	p, err := RunClosedLoop(2, 20*time.Millisecond, 200*time.Millisecond, 10*time.Millisecond,
		func(int) (func(ctx context.Context) error, func(), error) {
			return func(ctx context.Context) error {
				<-ctx.Done()
				return ctx.Err()
			}, nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p.Errors == 0 {
		t.Errorf("blocking ops never timed out: %+v", p)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func noop(context.Context, *opSpec, bool) error { return nil }

func testGroups() []opGroup {
	mk := func(n int, kind opKind) []opSpec {
		ops := make([]opSpec, n)
		for i := range ops {
			ops[i] = opSpec{kind: kind, url: keyName(i)}
		}
		return ops
	}
	return []opGroup{
		{label: "read", weight: 70, ops: mk(1000, opLookup)},
		{label: "hot", weight: 20, zipf: true, ops: mk(512, opLookup)},
		{label: "write", weight: 10, ownNames: true, ops: mk(100, opRebind)},
	}
}

// The loop must not charge the generator's allocations to the system.
func TestLoopAllocatesNothing(t *testing.T) {
	c := &client{pick: newPicker(testGroups(), 1, 0, 2)}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() { c.runFor(ctx, noop, time.Hour, 2000) })
	if allocs != 0 {
		t.Fatalf("loop allocates %.1f objects per 2000 ops against a no-op target, want 0", allocs)
	}
	if c.ok == 0 || c.fail != 0 {
		t.Fatalf("ok=%d fail=%d", c.ok, c.fail)
	}
}

func TestHistogramWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	exact := make([]float64, 200000)
	for i := range exact {
		// log-uniform from 500 ns to 50 ms, the range the workloads span
		ns := 500 * math.Pow(1e5, rng.Float64())
		exact[i] = ns
		h.record(time.Duration(ns))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.50, 0.99} {
		got, beyond := h.quantile(q)
		want := exact[int(q*float64(len(exact)))]
		if rel := math.Abs(got-want) / want; rel > 0.032 {
			t.Errorf("p%.0f = %.0f ns, exact %.0f ns: off by %.1f%%, want <= 3.2%%", 100*q, got, want, 100*rel)
		}
		if max := uint64((1 - q) * float64(len(exact))); beyond > max {
			t.Errorf("p%.0f reports %d samples beyond it, at most %d exist", 100*q, beyond, max)
		}
	}
}

func TestSeedFixesTheSequence(t *testing.T) {
	groups := testGroups()
	draw := func(seed int64, client int) []string {
		p := newPicker(groups, seed, client, 2)
		var seq []string
		for i := 0; i < 5000; i++ {
			g, op, alt := p.next()
			seq = append(seq, groups[g].label+op.url+map[bool]string{true: "+", false: ""}[alt])
		}
		return seq
	}
	a, b := draw(7, 0), draw(7, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, op %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	same := func(x, y []string) bool { return strings.Join(x, ",") == strings.Join(y, ",") }
	if same(a, draw(8, 0)) {
		t.Error("another seed drew the same sequence")
	}
	if same(a, draw(7, 1)) {
		t.Error("another client of the same seed drew the same sequence")
	}
	// The deck holds every group in its exact share of each 100 ops, and a
	// client rebinds only its own names.
	p := newPicker(groups, 7, 1, 2)
	count := map[int]int{}
	for i := 0; i < 1000; i++ {
		g, op, _ := p.next()
		count[g]++
		if groups[g].ownNames {
			var idx int
			for j := range groups[g].ops {
				if &groups[g].ops[j] == op {
					idx = j
				}
			}
			if idx%2 != 1 {
				t.Fatalf("client 1 of 2 drew write name %d, not its own", idx)
			}
		}
	}
	for g, grp := range groups {
		if count[g] != 10*grp.weight {
			t.Errorf("group %s: %d of 1000 ops, want %d", grp.label, count[g], 10*grp.weight)
		}
	}
}

// Every world builder starts, seeds, verifies one op of every kind (the
// dial step of buildWorld), passes its checks and shuts down without
// leaking goroutines.
func TestWorldsStartVerifyStop(t *testing.T) {
	defer func(h, m, w int) { hdnsKeys, mixKeys, mixWriteKeys = h, m, w }(hdnsKeys, mixKeys, mixWriteKeys)
	hdnsKeys, mixKeys, mixWriteKeys = cacheKeys+88, 60, 10
	registerProviders()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, name := range workloadNames {
		before := len(benchGoroutines())
		w, err := buildWorld(ctx, name, 3, worldOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		load := runLoad(w.groups, w.do, 3, 2, 0, 60*time.Millisecond)
		if load.Failed != 0 || load.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", name, load.Failed, load.Attempted, load.FirstErr)
		}
		checks := w.checkWrites(ctx)
		var st replicaState
		if name == wlHDNSWrite {
			var cs []check
			st, cs = w.checkReplicas(3)
			checks = append(checks, cs...)
		}
		if err := w.shutdown(); err != nil {
			t.Errorf("%s: shutdown: %v", name, err)
		}
		if name == wlHDNSWrite {
			checks = append(checks, w.checkRestoreAfterClose(st.version)...)
		}
		for _, c := range checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
			}
		}
		if err := w.close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
		var leaked []string
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if leaked = benchGoroutines(); len(leaked) <= before || time.Now().After(deadline) {
				break
			}
		}
		if len(leaked) > before {
			t.Errorf("%s: %d goroutines leaked\n%s", name, len(leaked)-before, strings.Join(leaked, "\n\n"))
		}
	}
}

// benchGoroutines returns the stacks of the live goroutines, leaving out
// the Jini lease renewers: an InitialContext without a cache never closes
// the provider contexts it opens, so the pooled registrar's renewal
// manager (two goroutines per name the run rebound) outlives ic.Close().
// That leak is the repository's, listed in README "Found while building".
func benchGoroutines() []string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if !strings.Contains(g, "LeaseRenewalManager") {
			out = append(out, g)
		}
	}
	return out
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := quartileSpread([]float64{5, 1, 4, 2, 3}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1.0", got)
	}
	// statistics.quantiles([10, 11, 12, 14], n=4) == [10.25, 11.5, 13.5]
	if got, want := quartileSpread([]float64{10, 11, 12, 14}), 3.25/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	failRatio := 0.0
	result := func(ops, allocs, scatter float64) runResult {
		var rs []roundResult
		for i := -2; i <= 2; i++ {
			f := 1 + scatter*float64(i)
			rs = append(rs, roundResult{Ops: 10000, OpsPerS: ops * f, LatP50us: 100 / f, CPUusPerOp: 100 / f, AllocsPerOp: allocs, AllocBytesPerOp: 1000, FailRatio: failRatio})
		}
		r := runResult{Workload: wlHDNSRead, Correct: true, SetupS: []float64{1, 1, 1}, Load: &loadResult{Rounds: rs}, EndToEnd: map[string]float64{}}
		for _, m := range endToEnd {
			if m.round != nil {
				r.EndToEnd[m.Name] = m.overRun(rs)
			} else {
				r.EndToEnd[m.Name] = 1
			}
		}
		return r
	}
	write := func(name string, r runResult) string {
		path := t.TempDir() + "/" + name
		b, _ := json.Marshal(resultFile{Workloads: []runResult{r}})
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	verdicts := func(a, b runResult) (map[string]string, bool) {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, write("a.json", a), write("b.json", b))
		if err != nil {
			t.Fatal(err)
		}
		v := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 8 && f[0] == wlHDNSRead {
				v[f[1]] = f[len(f)-1]
			}
		}
		return v, regressed
	}

	base := result(5000, 1000, 0.01)
	if v, reg := verdicts(base, result(4900, 1000, 0.01)); reg || v["ops_per_s"] != "ok" || v["allocs_per_op"] != "ok" {
		t.Errorf("2%% slower: %v regressed=%v, want ok", v, reg)
	}
	if v, reg := verdicts(base, result(5000, 1030, 0.01)); !reg || v["allocs_per_op"] != "regressed" || v["ops_per_s"] != "ok" {
		t.Errorf("3%% more allocations: %v regressed=%v, want allocs_per_op regressed", v, reg)
	}
	if v, reg := verdicts(base, result(3000, 1000, 0.01)); !reg || v["ops_per_s"] != "regressed" {
		t.Errorf("40%% slower: %v regressed=%v, want ops_per_s regressed", v, reg)
	}
	if v, reg := verdicts(base, result(4000, 1000, 0.15)); reg || v["ops_per_s"] != "unresolved" {
		t.Errorf("20%% slower under 30%% scatter: %v regressed=%v, want ops_per_s unresolved", v, reg)
	}
	// fail_ratio is 0 at the baseline: its bound is a difference.
	failRatio = 0.0005
	if v, reg := verdicts(base, result(5000, 1000, 0.01)); reg || v["fail_ratio"] != "ok" {
		t.Errorf("5 failures in 10 000: %v regressed=%v, want fail_ratio ok", v, reg)
	}
	failRatio = 0.002
	if v, reg := verdicts(base, result(5000, 1000, 0.01)); !reg || v["fail_ratio"] != "regressed" {
		t.Errorf("20 failures in 10 000: %v regressed=%v, want fail_ratio regressed", v, reg)
	}
}

var update = flag.Bool("update", false, "rewrite the metric tables of ../BENCHMARK.json from metrics.go")

// updateBenchmarkJSON rewrites end_to_end and per_layer from metrics.go,
// keeping every other key of the file as it is.
func updateBenchmarkJSON(t *testing.T, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    json.RawMessage `json:"command"`
		Paths      json.RawMessage `json:"paths"`
		RunSeconds json.RawMessage `json:"run_seconds"`
		Workloads  json.RawMessage `json:"workloads"`
		EndToEnd   []any           `json:"end_to_end"`
		PerLayer   []any           `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	better := map[bool]string{true: "higher", false: "lower"}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	f.EndToEnd, f.PerLayer = nil, nil
	for _, m := range driverMetrics() {
		f.EndToEnd = append(f.EndToEnd, e2e{m.Name, m.Unit, better[m.Higher], m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layer{m.Name, m.Unit, better[m.Higher]})
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json repeats the metric tables of metrics.go (the end-to-end
// metrics marked Driver) and the workload names; the driver refuses a
// file outside its limits.
// `go test -run BenchmarkJSON -update` rewrites the tables.
func TestBenchmarkJSONInStep(t *testing.T) {
	if *update {
		updateBenchmarkJSON(t, "../BENCHMARK.json")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds=%d paths=%v", f.RunSeconds, f.Paths)
	}
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	gated := driverMetrics()
	if len(f.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics, want %d", len(f.EndToEnd), len(gated))
	}
	for i, m := range f.EndToEnd {
		d := gated[i]
		better := map[bool]string{true: "higher", false: "lower"}[d.Higher]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better || m.Bound != d.Bound || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, metrics.go has %s %s %s %v", i, m, d.Name, d.Unit, better, d.Bound)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d]: name or unit outside the driver's limits: %+v", i, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, metrics.go has %d (limit 128)", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || m.Better != map[bool]string{true: "higher", false: "lower"}[perLayer[i].Higher] {
			t.Errorf("per_layer[%d] = %+v, metrics.go has %+v", i, m, perLayer[i])
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer[%d]: name or unit outside the driver's limits, or repeated: %+v", i, m)
		}
		seen[m.Name] = true
	}
}

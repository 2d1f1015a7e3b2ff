package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadResults reads a result file: either the whole-run file of
// `go run -C bench .` or the single-workload file of `-workload X -out`.
func loadResults(path string) (map[string]runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Workloads) == 0 {
		var one runResult
		if err := json.Unmarshal(b, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: no workload results", path)
		}
		file.Workloads = []runResult{one}
	}
	out := map[string]runResult{}
	for _, r := range file.Workloads {
		out[r.Workload] = r
	}
	return out, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them; v holds at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median; 0 for fewer than two values or a median of 0.
func quartileSpread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// samples returns the values a metric's median was taken over.
func (r runResult) samples(m metricDef) []float64 {
	switch {
	case m.round != nil && r.Load != nil:
		return overRounds(r.Load.Rounds, m.round)
	case m.Name == "setup_s":
		return r.SetupS
	}
	return nil
}

// scatter is how widely one run's samples of m lie apart, in the bound's
// terms: the quartile distance as a share of the median, or as it is for
// an absolute bound.
func (m metricDef) scatter(v []float64) float64 {
	if !m.Absolute {
		return quartileSpread(v)
	}
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return q3 - q1
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the metric's bound and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	regressed   it is, and by more than the rounds scatter
//	unresolved  the rounds of either run scatter by more than the bound,
//	            so a difference of the bound's size cannot be told from noise
//
// It reports whether any metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "a = %s\nb = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, name := range workloadNames {
		ra, okA := a[name]
		rb, okB := b[name]
		if !okA || !okB {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			worse := vb - va // by which b is worse; negative = better
			if m.Higher {
				worse = -worse
			}
			if !m.Absolute && va != 0 {
				worse /= va
			}
			spread := max(m.scatter(ra.samples(m)), m.scatter(rb.samples(m)))
			verdict := "ok"
			switch {
			case spread > m.Bound && worse <= spread:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			format := "%-14s %-20s %14.4f %14.4f %+8.1f%% %6.1f%% %7.1f%%  %s\n"
			scale := 100.0
			if m.Absolute {
				format, scale = "%-14s %-20s %14.4f %14.4f %+9.4f %7.4f %8.4f  %s\n", 1
			}
			fmt.Fprintf(w, format, name, m.Name, va, vb, scale*worse, scale*m.Bound, scale*spread, verdict)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-14s correctness checks failed (a: %v, b: %v)\n", name, ra.Correct, rb.Correct)
			regressed = true
		}
	}
	return regressed, nil
}

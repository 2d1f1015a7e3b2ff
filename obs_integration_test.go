package gondi

// End-to-end observability: a federated lookup crossing two naming
// systems must yield exactly one trace with one span per hop, and the
// trace must be visible on the /debug/vars endpoint — the pipeline an
// operator uses to diagnose federation latency.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"gondi/internal/core"
	"gondi/internal/obs"
)

func TestObservabilityTwoHopTrace(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)

	// Seed a binding in the HDNS middle tier through the plain context.
	if err := w.ic.Bind(ctx, "hdns://"+w.nodes[0].Addr()+"/host", "10.0.0.5:22"); err != nil {
		t.Fatal(err)
	}

	// An observed InitialContext: the obs middleware starts one trace per
	// operation and opens a hop span per federation continuation.
	ic, err := core.Open(ctx, core.WithMiddleware(obs.NewMiddleware()))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()

	obs.ResetTraces()
	obj, err := ic.Lookup(ctx, w.root()+"/host")
	if err != nil || obj != "10.0.0.5:22" {
		t.Fatalf("two-hop lookup = %v, %v", obj, err)
	}

	traces := obs.RecentTraces(0)
	if len(traces) != 1 {
		t.Fatalf("traces recorded = %d, want exactly 1", len(traces))
	}
	tr := traces[0]
	if tr.Op != "lookup" || tr.Err != "" {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Hops) != 2 {
		t.Fatalf("hops = %d, want 2 (dns -> hdns): %s", len(tr.Hops), tr)
	}
	if tr.Hops[0].Scheme != "dns" || tr.Hops[1].Scheme != "hdns" {
		t.Fatalf("hop schemes = %s, %s; want dns, hdns", tr.Hops[0].Scheme, tr.Hops[1].Scheme)
	}
	// Each hop talked to its naming system over the wire at least once.
	if tr.Hops[0].WireRTs == 0 || tr.Hops[1].WireRTs == 0 {
		t.Errorf("wire RTs per hop = %d, %d; want > 0 each", tr.Hops[0].WireRTs, tr.Hops[1].WireRTs)
	}
	// The terminal hop executed the naming operation.
	if tr.Hops[1].Ops == 0 {
		t.Errorf("terminal hop ops = 0, want > 0")
	}

	// The same trace is visible over the observability endpoint.
	srv, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Traces []struct {
			Op   string `json:"op"`
			Hops []struct {
				Scheme string `json:"scheme"`
			} `json:"hops"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || len(doc.Traces[0].Hops) != 2 {
		t.Fatalf("/debug/vars traces = %+v", doc.Traces)
	}
	if doc.Traces[0].Hops[0].Scheme != "dns" || doc.Traces[0].Hops[1].Scheme != "hdns" {
		t.Fatalf("/debug/vars hop schemes = %+v", doc.Traces[0].Hops)
	}

	// And the resolve-level metrics made it to /metrics in Prometheus
	// text exposition.
	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`gondi_resolve_ops_total{op="lookup"}`,
		`gondi_federation_hops_total{scheme="dns"}`,
		`gondi_federation_hops_total{scheme="hdns"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestObservabilityOverheadGate spot-checks that disabling obs turns the
// whole layer into no-ops (bench/'s obs.overhead_ratio measures the
// enabled cost; this guards the off switch).
func TestObservabilityDisabledIsInert(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	if err := w.ic.Bind(ctx, "hdns://"+w.nodes[0].Addr()+"/inert", "v"); err != nil {
		t.Fatal(err)
	}
	ic, err := core.Open(ctx, core.WithMiddleware(obs.NewMiddleware()))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()

	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	obs.ResetTraces()
	before := obs.Default.Counter("gondi_resolve_ops_total", "", obs.Label{K: "op", V: "lookup"}).Value()
	if _, err := ic.Lookup(ctx, fmt.Sprintf("hdns://%s/inert", w.nodes[0].Addr())); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.Counter("gondi_resolve_ops_total", "", obs.Label{K: "op", V: "lookup"}).Value(); got != before {
		t.Errorf("resolve ops moved while disabled: %d -> %d", before, got)
	}
	if len(obs.RecentTraces(0)) != 0 {
		t.Error("trace recorded while disabled")
	}
}

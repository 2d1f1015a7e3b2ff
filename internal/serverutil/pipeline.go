package serverutil

import (
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/obs"
	"gondi/internal/rpc"
)

// Pipeline is one server's request path: every request the server
// answers is admitted, handled, charged, metered and released by a Stage
// of its pipeline, whatever the protocol that carried it. The five
// servers (hdns, jini, jxta, dns, ldap) differ only in their codecs and
// their busy encodings.
type Pipeline struct {
	proto, addr string
	adm         *admission.Controller
	costs       Costs
}

// Costs is the service time a pipeline charges per request (the figure
// harness installs package costmodel's calibrated 2005 stations): each
// call blocks for n bytes' service and reports false on a refusal. A
// write pays WriteCost(len(request)) before its handler, a read or search
// ReadCost(len(answer)) after it, and a refusal answers busy.
type Costs interface {
	ReadCost(n int) bool
	WriteCost(n int) bool
}

// stationBusyRetryAfter is the hint of a Costs refusal (a station has no
// drain estimate of its own; admission sheds carry a measured one).
const stationBusyRetryAfter = 25 * time.Millisecond

// NewPipeline starts the pipeline of the server labelled proto that
// listens on addr. adm may be nil (admit everything), and so may costs
// (charge nothing).
func NewPipeline(proto, addr string, adm *admission.Controller, costs Costs) *Pipeline {
	return &Pipeline{proto: proto, addr: addr, adm: adm, costs: costs}
}

// Stage is one method of a pipeline: its admission class and its
// gondi_server_requests_total / gondi_server_request_seconds handles,
// resolved once when the stage is made.
type Stage struct {
	p      *Pipeline
	method string
	class  admission.Class
	reqs   *obs.Counter
	lat    *obs.Histogram
}

// Stage resolves the stage that serves method as admission class class.
func (p *Pipeline) Stage(method string, class admission.Class) *Stage {
	labels := []obs.Label{{K: "proto", V: p.proto}, {K: "method", V: method}}
	return &Stage{
		p: p, method: method, class: class,
		reqs: obs.Default.Counter("gondi_server_requests_total",
			"Server-side requests handled, by protocol and method.", labels...),
		lat: obs.Default.Histogram("gondi_server_request_seconds",
			"Server-side request handling latency, by protocol and method.", labels...),
	}
}

// Serve admits one request of reqLen bytes, runs fn and charges it (see
// charge), meters it and releases its slot, returning fn's answer. An
// admitted request is counted whatever fn or the charge returned. On a
// shed Serve returns the admission *core.ServerBusyError without running
// fn; sheds are counted by gondi_admission_shed_total alone.
func (s *Stage) Serve(reqLen int, fn func() ([]byte, error)) ([]byte, error) {
	release, err := s.p.adm.Admit(s.class, s.p.addr, s.method)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	out, err := s.charge(reqLen, fn)
	s.reqs.Inc()
	s.lat.Since(start)
	return out, err
}

// charge runs fn under the one service-time rule. A write pays for what
// it brings in, before it is applied: a refused write never runs. A read
// or search pays for what it sends back, after it ran: a refused answer
// is dropped. Either refusal is a *core.ServerBusyError.
func (s *Stage) charge(reqLen int, fn func() ([]byte, error)) ([]byte, error) {
	c := s.p.costs
	switch {
	case c == nil:
		return fn()
	case s.class == admission.Write:
		if c.WriteCost(reqLen) {
			return fn()
		}
	default:
		if out, err := fn(); c.ReadCost(len(out)) {
			return out, err
		}
	}
	return nil, &core.ServerBusyError{Endpoint: s.p.addr, Op: s.method, RetryAfter: stationBusyRetryAfter}
}

// HandleRPC registers st's method on srv: each call is served by st,
// which decodes the body, runs fn and encodes its answer. The encoder
// owns the response buffer, which rpc writes after the handler returns.
func HandleRPC[Q, R any](srv *rpc.Server, st *Stage, decode func([]byte) (Q, error), encode func(R) []byte,
	fn func(*rpc.ServerConn, Q) (R, error)) {
	srv.Handle(st.method, func(sc *rpc.ServerConn, body []byte) ([]byte, error) {
		return st.Serve(len(body), func() ([]byte, error) {
			req, err := decode(body)
			if err != nil {
				return nil, err
			}
			rsp, err := fn(sc, req)
			if err != nil {
				return nil, err
			}
			return encode(rsp), nil
		})
	})
}

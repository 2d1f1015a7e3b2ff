package serverutil

import (
	"time"

	"gondi/internal/admission"
	"gondi/internal/obs"
	"gondi/internal/rpc"
)

// Pipeline is one server's request path: every request the server
// answers is admitted, handled, metered and released by a Stage of its
// pipeline, whatever the protocol that carried it. The five servers
// (hdns, jini, jxta, dns, ldap) differ only in their codecs and their
// busy encodings.
type Pipeline struct {
	proto, addr string
	adm         *admission.Controller
}

// NewPipeline starts the pipeline of the server labelled proto that
// listens on addr. adm may be nil (admit everything).
func NewPipeline(proto, addr string, adm *admission.Controller) *Pipeline {
	return &Pipeline{proto: proto, addr: addr, adm: adm}
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

// Serve admits one request, runs fn, meters it and releases its slot.
// A request is counted once fn has run, whatever fn returned. On a shed
// Serve returns the admission *core.ServerBusyError without running fn;
// sheds are counted by gondi_admission_shed_total alone.
func (s *Stage) Serve(fn func() error) error {
	release, err := s.p.adm.Admit(s.class, s.p.addr, s.method)
	if err != nil {
		return err
	}
	defer release()
	start := time.Now()
	err = fn()
	s.reqs.Inc()
	s.lat.Since(start)
	return err
}

// HandleRPC registers st's method on srv: each call is served by st,
// which decodes the body, runs fn and encodes its answer. The encoder
// owns the response buffer, which rpc writes after the handler returns.
func HandleRPC[Q, R any](srv *rpc.Server, st *Stage, decode func([]byte) (Q, error), encode func(R) []byte,
	fn func(*rpc.ServerConn, Q) (R, error)) {
	srv.Handle(st.method, func(sc *rpc.ServerConn, body []byte) ([]byte, error) {
		var out []byte
		err := st.Serve(func() error {
			req, err := decode(body)
			if err != nil {
				return err
			}
			rsp, err := fn(sc, req)
			if err != nil {
				return err
			}
			out = encode(rsp)
			return nil
		})
		return out, err
	})
}

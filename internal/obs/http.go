package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Handler returns the observability HTTP mux for a registry:
//
//	/metrics      Prometheus text exposition (hand-rolled, format 0.0.4)
//	/debug/vars   JSON: metrics, runtime stats, recent federation traces
//	/debug/pprof  the standard net/http/pprof endpoints
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		doc := map[string]any{
			"metrics": r.Vars(),
			"traces":  RecentTraces(32),
			"runtime": map[string]any{
				"goroutines":     runtime.NumGoroutine(),
				"heap_alloc":     ms.HeapAlloc,
				"total_alloc":    ms.TotalAlloc,
				"num_gc":         ms.NumGC,
				"gc_pause_total": time.Duration(ms.PauseTotalNs).String(),
			},
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts the observability HTTP server on addr, serving the Default
// registry. Every daemon's -obs.addr flag lands here; an empty addr
// returns (nil, nil) so callers can pass the flag through unconditionally.
func Serve(addr string) (*Server, error) {
	return ServeRegistry(addr, Default)
}

// ServeRegistry is Serve for an explicit registry.
func ServeRegistry(addr string, r *Registry) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(r)}
	go func() { _ = srv.Serve(lis) }()
	return &Server{lis: lis, srv: srv}, nil
}

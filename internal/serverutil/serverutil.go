// Package serverutil holds what the five servers (hdns, jini, jxta,
// dns, ldap) share: the one request pipeline every request passes
// (admission, metering; pipeline.go), and the typed options of their
// daemons (hdnsd, jinilusd, dnsd, ldapd, jxtad): listen address,
// observability endpoint, and admission control. One flag-binding helper
// maps the daemons' historical flags (-listen, -obs.addr) plus the new
// -admission.* family onto the typed Options, so every daemon gains
// overload protection with identical spelling and defaults.
package serverutil

import (
	"flag"

	"gondi/internal/admission"
)

// Options is the typed configuration shared by every daemon.
type Options struct {
	// ListenAddr is the client-facing listen address.
	ListenAddr string
	// ObsAddr serves /metrics, /debug/vars and /debug/pprof ("" = off).
	ObsAddr string
	// Admission configures the server's admission controller.
	Admission admission.Options
}

// Option mutates Options (the typed-constructor pattern).
type Option func(*Options)

// WithListenAddr sets the client-facing listen address.
func WithListenAddr(addr string) Option {
	return func(o *Options) { o.ListenAddr = addr }
}

// WithObsAddr sets the observability HTTP address.
func WithObsAddr(addr string) Option {
	return func(o *Options) { o.ObsAddr = addr }
}

// WithAdmission sets the admission configuration wholesale.
func WithAdmission(a admission.Options) Option {
	return func(o *Options) { o.Admission = a }
}

// NewOptions applies opts over the zero value.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Controller builds the admission controller described by the options.
func (o Options) Controller() *admission.Controller {
	return admission.NewController(o.Admission)
}

// Flags carries the parsed shared flags until Options resolves them.
type Flags struct {
	listen     *string
	obsAddr    *string
	admit      *bool
	queue      *int
	readRate   *float64
	writeRate  *float64
	searchRate *float64
}

// BindFlags registers the shared daemon flags on fs. The historical
// spellings are kept: -listen (defaulting per daemon) and -obs.addr mean
// exactly what they always did; the -admission.* family is new.
func BindFlags(fs *flag.FlagSet, defaultListen string) *Flags {
	return &Flags{
		listen: fs.String("listen", defaultListen, "client-facing listen address"),
		obsAddr: fs.String("obs.addr", "",
			"observability HTTP address serving /metrics, /debug/vars and /debug/pprof (empty = off)"),
		admit: fs.Bool("admission", true,
			"shed excess load with typed busy errors instead of queueing without bound"),
		queue: fs.Int("admission.queue", admission.DefaultQueueBound,
			"admission run-queue bound (queued + executing ops)"),
		readRate: fs.Float64("admission.read-rate", 0,
			"read-class rate limit in ops/sec (0 = unlimited)"),
		writeRate: fs.Float64("admission.write-rate", 0,
			"write-class rate limit in ops/sec (0 = unlimited)"),
		searchRate: fs.Float64("admission.search-rate", 0,
			"search-class rate limit in ops/sec (0 = unlimited)"),
	}
}

// Options resolves the parsed flags into typed options; server labels the
// admission metrics ("hdns", "ldap", ...).
func (f *Flags) Options(server string) Options {
	adm := admission.NewOptions(
		admission.WithServer(server),
		admission.WithQueueBound(*f.queue),
		admission.WithRate(admission.Read, *f.readRate, 0),
		admission.WithRate(admission.Write, *f.writeRate, 0),
		admission.WithRate(admission.Search, *f.searchRate, 0),
		admission.WithDisabled(!*f.admit),
	)
	return NewOptions(
		WithListenAddr(*f.listen),
		WithObsAddr(*f.obsAddr),
		WithAdmission(adm),
	)
}

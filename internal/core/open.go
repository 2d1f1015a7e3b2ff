package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// CacheConfig configures the read-through cache middleware (implemented in
// internal/cache; see WithCache). It lives in core so that core can expose
// the typed WithCache option without importing the cache package.
type CacheConfig struct {
	// TTL bounds the staleness of positive entries for providers without
	// event-driven invalidation (and backstops those with it); <=0 uses
	// the cache package's default.
	TTL time.Duration
	// NegativeTTL bounds how long an ErrNotFound result is remembered;
	// <=0 uses the default.
	NegativeTTL time.Duration
	// MaxEntries bounds the per-root entry count (LRU eviction); <=0 uses
	// the default.
	MaxEntries int
	// DisableEvents forces TTL-only coherence even on providers that
	// support Watch.
	DisableEvents bool
	// DisableNegative turns off negative caching of ErrNotFound.
	DisableNegative bool
	// StaleTTL bounds how long past expiry a positive entry may still be
	// served when a refill fails with a transport-class error (backend
	// unreachable, breaker open). <=0 uses the cache package's default.
	StaleTTL time.Duration
	// DisableServeStale turns the degraded serve-stale mode off entirely:
	// a transport failure during refill surfaces to the caller even when an
	// expired entry is available.
	DisableServeStale bool
}

// Middleware intercepts InitialContext resolution. The cache package
// implements it; the obs package layers metrics and federation tracing
// the same way. Multiple middlewares stack: the resolution of every name —
// URL, plain or continuation — flows outermost-in, each layer handed the
// next one down, which ends at the InitialContext's held roots.
type Middleware interface {
	// OpenURLNext resolves rawURL through next, the layer below, and may
	// decorate what it returns. next returns the same context for a
	// scheme://authority until the InitialContext opens that root again.
	OpenURLNext(ctx context.Context, rawURL string, env map[string]any, next OpenURLFunc) (Context, Name, error)
	// Close releases everything the middleware holds (watch
	// registrations, background goroutines); the held roots are the
	// InitialContext's to close.
	Close() error
}

// OpenURLFunc is the URL-resolution continuation handed to a middleware:
// the next layer down, ending at the InitialContext's held roots.
type OpenURLFunc func(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error)

// ChainedMiddleware is Middleware under the name it had when a middleware
// could also end the chain; code outside this module still names it.
type ChainedMiddleware = Middleware

// OpObserver is an optional Middleware extension that brackets every
// InitialContext operation: BeginOp runs before resolution starts and may
// derive the context (e.g. to carry a trace); the returned finish runs
// once with the operation's terminal error. Middleware whose BeginOp
// needs no per-op state returns ctx unchanged and a no-op finish.
type OpObserver interface {
	BeginOp(ctx context.Context, op, name string) (context.Context, func(err error))
}

// CacheFactory builds the cache middleware for one InitialContext. env is
// the context's environment (shared, not a copy).
type CacheFactory func(cfg CacheConfig, env map[string]any) Middleware

var cacheFactoryMu sync.RWMutex
var cacheFactory CacheFactory

// RegisterCacheFactory installs the factory WithCache uses. The cache
// package registers itself via cache.Register(); core holds only this hook
// so the dependency points cache→core, never the reverse.
func RegisterCacheFactory(f CacheFactory) {
	cacheFactoryMu.Lock()
	defer cacheFactoryMu.Unlock()
	cacheFactory = f
}

func lookupCacheFactory() (CacheFactory, bool) {
	cacheFactoryMu.RLock()
	defer cacheFactoryMu.RUnlock()
	return cacheFactory, cacheFactory != nil
}

// openOptions accumulates functional options for Open.
type openOptions struct {
	env   map[string]any
	cache *CacheConfig
	mws   []Middleware
}

// Option configures Open.
type Option func(*openOptions)

// WithProviderURL sets where plain names resolve (the typed form of
// env[EnvProviderURL]): a plain name is that name under the URL's path, at
// the held root of its scheme://authority.
func WithProviderURL(url string) Option {
	return func(o *openOptions) { o.env[EnvProviderURL] = url }
}

// WithPrincipal carries authentication data (the typed form of
// env[EnvPrincipal] / env[EnvCredentials]).
func WithPrincipal(principal, credentials string) Option {
	return func(o *openOptions) {
		o.env[EnvPrincipal] = principal
		o.env[EnvCredentials] = credentials
	}
}

// WithPoolID partitions provider connection pools (the typed form of
// env[EnvPoolID]): contexts opened with different pool IDs never share a
// wire connection.
func WithPoolID(id string) Option {
	return func(o *openOptions) { o.env[EnvPoolID] = id }
}

// WithEnv sets an arbitrary environment property, for provider-specific
// keys ("jini.bind", "hdns.secret", ...) that have no typed option.
func WithEnv(key string, value any) Option {
	return func(o *openOptions) { o.env[key] = value }
}

// WithMiddleware stacks a resolution middleware outside any configured
// cache (the first WithMiddleware is outermost). The obs package's
// NewMiddleware is the canonical use: metrics and federation tracing
// wrap the cache, so a cache hit is still observed.
func WithMiddleware(mw Middleware) Option {
	return func(o *openOptions) { o.mws = append(o.mws, mw) }
}

// WithCache enables the read-through federation cache with the given
// configuration (zero value = defaults). It requires the cache middleware
// to be registered — import internal/cache and call cache.Register()
// alongside the provider Register calls — otherwise Open fails.
func WithCache(cfg CacheConfig) Option {
	return func(o *openOptions) { o.cache = &cfg }
}

// Open creates an initial context from typed functional options and wires
// the optional middleware (WithMiddleware, WithCache) into resolution. It
// is the one way to build an InitialContext.
func Open(ctx context.Context, opts ...Option) (*InitialContext, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	o := &openOptions{env: make(map[string]any)}
	for _, opt := range opts {
		opt(o)
	}
	ic := &InitialContext{env: o.env}
	ic.Doer = ic
	for _, mw := range o.mws {
		ic.installMiddleware(mw)
	}
	if o.cache != nil {
		f, ok := lookupCacheFactory()
		if !ok {
			return nil, fmt.Errorf("naming: WithCache requires the cache middleware: import gondi/internal/cache and call cache.Register()")
		}
		ic.installMiddleware(f(*o.cache, ic.env))
	}
	return ic, nil
}

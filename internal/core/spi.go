package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Well-known environment property keys (the analog of
// javax.naming.Context.PROVIDER_URL and friends). Providers may define
// additional keys in their own namespaces (e.g. "jini.bind").
const (
	// EnvProviderURL is where plain (non-URL) names resolve: a plain
	// name is that name under the URL's path.
	EnvProviderURL = "gondi.provider.url"
	// EnvPrincipal and EnvCredentials carry authentication data.
	EnvPrincipal   = "gondi.security.principal"
	EnvCredentials = "gondi.security.credentials"
	// EnvPoolID partitions provider connection pools: contexts opened
	// with different pool IDs never share a connection. Federation-
	// opened contexts default to the shared pool.
	EnvPoolID = "gondi.pool.id"
)

// EnvInt reads an integer environment property given as an int, an int64
// or a decimal string; anything else, or an absent key, yields def.
func EnvInt(env map[string]any, key string, def int) int {
	switch v := env[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case string:
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// EnvString reads a string environment property; a missing, empty or
// non-string value yields def.
func EnvString(env map[string]any, key, def string) string {
	if v, ok := env[key].(string); ok && v != "" {
		return v
	}
	return def
}

// Provider is the service provider interface: given a URL-form name it
// opens a context rooted at the named service and returns the still
// unresolved remainder of the name. The paper's two new providers (Jini,
// HDNS) and the pre-existing ones (DNS, LDAP, filesystem) all register
// here, keyed by URL scheme.
type Provider interface {
	// OpenURL connects to the service identified by rawURL's authority
	// and returns a context plus the URL's path as remaining name. ctx
	// bounds the dial/handshake; wire providers turn its deadline into a
	// connection deadline.
	OpenURL(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error)
}

// ProviderFunc adapts a function to the Provider interface.
type ProviderFunc func(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error)

// OpenURL implements Provider.
func (f ProviderFunc) OpenURL(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error) {
	return f(ctx, rawURL, env)
}

var spiMu sync.RWMutex
var providers = map[string]Provider{}

// RegisterProvider installs a provider for a URL scheme (e.g. "jini",
// "hdns", "dns", "ldap", "file", "mem"). Later registrations replace
// earlier ones.
func RegisterProvider(scheme string, p Provider) {
	spiMu.Lock()
	defer spiMu.Unlock()
	providers[strings.ToLower(scheme)] = p
}

// LookupProvider returns the provider registered for scheme.
func LookupProvider(scheme string) (Provider, bool) {
	spiMu.RLock()
	defer spiMu.RUnlock()
	p, ok := providers[strings.ToLower(scheme)]
	return p, ok
}

// Schemes returns the registered provider schemes, sorted.
func Schemes() []string {
	spiMu.RLock()
	defer spiMu.RUnlock()
	out := make([]string, 0, len(providers))
	for s := range providers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// OpenURL resolves a URL-form name to a provider context and remaining
// name. It is the entry point the federation machinery uses whenever it
// crosses into another naming system.
func OpenURL(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, Name{}, err
	}
	u, err := ParseURLName(rawURL)
	if err != nil {
		return nil, Name{}, err
	}
	p, ok := LookupProvider(u.Scheme)
	if !ok {
		return nil, Name{}, fmt.Errorf("%w: %q", ErrNoProvider, u.Scheme)
	}
	return p.OpenURL(ctx, rawURL, env)
}

// resetSPIForTest clears provider registrations (tests only).
func resetSPIForTest() {
	spiMu.Lock()
	defer spiMu.Unlock()
	providers = map[string]Provider{}
}

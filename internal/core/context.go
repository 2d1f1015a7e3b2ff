package core

import (
	"context"
	"time"
)

// NameClassPair is a List result: the bound name (single component,
// relative to the listed context) and the class (Go type string) of the
// bound object.
type NameClassPair struct {
	Name  string
	Class string
}

// Binding is a ListBindings result: name, class, and the object itself.
type Binding struct {
	Name   string
	Class  string
	Object any
}

// SearchScope controls how deep a directory search descends.
type SearchScope int

// Search scopes, mirroring SearchControls.OBJECT_SCOPE etc.
const (
	// ScopeObject tests only the named object.
	ScopeObject SearchScope = iota
	// ScopeOneLevel searches direct children of the named context.
	ScopeOneLevel
	// ScopeSubtree searches the whole subtree.
	ScopeSubtree
)

// SearchControls tunes a directory search.
type SearchControls struct {
	Scope SearchScope
	// CountLimit bounds the number of results; 0 means unlimited.
	CountLimit int
	// TimeLimit bounds the server-side search time; 0 means unlimited.
	TimeLimit time.Duration
	// ReturnAttrs selects which attributes each result carries; nil
	// returns all, an empty non-nil slice returns none.
	ReturnAttrs []string
	// ReturnObject asks the provider to return bound objects, not just
	// names and attributes.
	ReturnObject bool
}

// SearchResult is one directory search hit.
type SearchResult struct {
	// Name is relative to the search base.
	Name       string
	Class      string
	Object     any // nil unless SearchControls.ReturnObject
	Attributes *Attributes
}

// Context is the base naming interface, the analog of javax.naming.Context.
// Names are composite name strings (see ParseName); providers receive names
// relative to themselves.
//
// Every operation takes a context.Context first. Its deadline becomes a
// real I/O deadline on wire-backed providers, and cancellation aborts
// in-flight calls with an error wrapping ctx.Err(). Federation
// continuations propagate the caller's ctx across naming-system hops, so
// one deadline bounds a whole multi-hop resolution.
//
// Bind has atomic test-and-set semantics: it fails with ErrAlreadyBound if
// the name is taken. Rebind overwrites unconditionally. This distinction is
// central to §5.1 of the paper: Jini offers only idempotent overwrite, so
// the Jini provider must build atomic Bind out of distributed locking.
type Context interface {
	// Lookup retrieves the object bound to name. Looking up the empty
	// name returns a new context instance sharing this context's state.
	Lookup(ctx context.Context, name string) (any, error)
	// Bind binds name to obj; it fails if name is already bound.
	Bind(ctx context.Context, name string, obj any) error
	// Rebind binds name to obj, replacing any existing binding.
	Rebind(ctx context.Context, name string, obj any) error
	// Unbind removes the binding; unbinding an unbound name succeeds
	// (JNDI semantics), but intermediate contexts must exist.
	Unbind(ctx context.Context, name string) error
	// Rename moves the binding at oldName to newName; newName must not
	// be bound.
	Rename(ctx context.Context, oldName, newName string) error
	// List enumerates the names and classes bound in the named context.
	List(ctx context.Context, name string) ([]NameClassPair, error)
	// ListBindings enumerates names, classes and objects.
	ListBindings(ctx context.Context, name string) ([]Binding, error)
	// CreateSubcontext creates and binds a new context.
	CreateSubcontext(ctx context.Context, name string) (Context, error)
	// DestroySubcontext removes an empty subcontext.
	DestroySubcontext(ctx context.Context, name string) error
	// LookupLink is Lookup but does not follow a terminal link reference.
	LookupLink(ctx context.Context, name string) (any, error)
	// NameInNamespace returns this context's full name within its own
	// naming system (not across federation boundaries).
	NameInNamespace() (string, error)
	// Environment returns the context's environment properties.
	Environment() map[string]any
	// Close releases provider resources (connections, lease renewers).
	Close() error
}

// DirContext adds directory operations: attributes and searches, the analog
// of javax.naming.directory.DirContext.
type DirContext interface {
	Context
	// BindAttrs is Bind plus initial attributes.
	BindAttrs(ctx context.Context, name string, obj any, attrs *Attributes) error
	// RebindAttrs is Rebind plus attributes; nil attrs keeps existing
	// attributes (JNDI semantics), an empty set clears them.
	RebindAttrs(ctx context.Context, name string, obj any, attrs *Attributes) error
	// GetAttributes returns the named object's attributes, optionally
	// restricted to the listed IDs.
	GetAttributes(ctx context.Context, name string, attrIDs ...string) (*Attributes, error)
	// ModifyAttributes applies a batch of modifications atomically.
	ModifyAttributes(ctx context.Context, name string, mods []AttributeMod) error
	// Search evaluates an RFC 4515 filter under the named context.
	// Providers enforce SearchControls.TimeLimit and return partial
	// results alongside a *TimeLimitExceededError when it fires.
	Search(ctx context.Context, name string, filterStr string, controls *SearchControls) ([]SearchResult, error)
	// CreateSubcontextAttrs creates a subcontext with attributes.
	CreateSubcontextAttrs(ctx context.Context, name string, attrs *Attributes) (DirContext, error)
}

// EventType classifies naming events.
type EventType int

// Naming event types, mirroring NamingEvent.OBJECT_ADDED etc.
const (
	EventObjectAdded EventType = iota
	EventObjectRemoved
	EventObjectChanged
	EventObjectRenamed
	// EventWatchLost signals that the event channel behind a Watch died
	// (connection torn, server restarted): no further events will arrive
	// and the listener's view of the subtree can silently go stale.
	// Consumers that cache on the strength of the watch must fall back to
	// time-based expiry until a new Watch succeeds.
	EventWatchLost
)

func (t EventType) String() string {
	switch t {
	case EventObjectAdded:
		return "added"
	case EventObjectRemoved:
		return "removed"
	case EventObjectChanged:
		return "changed"
	case EventObjectRenamed:
		return "renamed"
	case EventWatchLost:
		return "watch-lost"
	default:
		return "?"
	}
}

// NamingEvent notifies a listener of a change in a watched namespace,
// as EventFor decides it.
type NamingEvent struct {
	Type EventType
	// Name is the changed name relative to the watch target (a rename's
	// new one): empty for the target itself and for EventWatchLost.
	Name string
	// OldName is an EventObjectRenamed's old name.
	OldName string
	// NewValue and OldValue are provider-dependent; they may be nil.
	NewValue any
	OldValue any
}

// Listener receives naming events. Implementations must be safe for
// concurrent invocation.
type Listener func(NamingEvent)

// EventContext is implemented by providers that support the JNDI event
// notification model (both new providers in the paper do: Jini natively,
// HDNS via the H2O event mechanism).
type EventContext interface {
	Context
	// Watch registers a listener for events on target (ScopeObject
	// watches one name, ScopeOneLevel a context's children, ScopeSubtree
	// a whole subtree). The returned cancel function deregisters it.
	// ctx bounds the registration call itself, not the listener's
	// lifetime (deregister via the returned cancel).
	Watch(ctx context.Context, target string, scope SearchScope, l Listener) (cancel func(), err error)
}

// Lease is a time-bound grant of registration validity, the Jini leasing
// abstraction (§5.1 "Handling leases"). JNDI has no expiration concept, so
// providers renew leases internally via a RenewalManager until the entry is
// unbound or the provider is closed.
type Lease interface {
	// Expiration returns the current expiration time.
	Expiration() time.Time
	// Renew extends the lease by the requested duration; the granted
	// duration may be shorter.
	Renew(d time.Duration) (time.Duration, error)
	// Cancel terminates the lease immediately.
	Cancel() error
}

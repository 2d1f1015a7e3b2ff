package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Sentinel errors returned (usually wrapped in a *NamingError) by contexts.
var (
	// ErrNotFound indicates the name is not bound (NameNotFoundException).
	ErrNotFound = errors.New("name not found")
	// ErrAlreadyBound indicates Bind found an existing binding
	// (NameAlreadyBoundException). JNDI bind has atomic test-and-set
	// semantics; see §5.1 of the paper for the cost of providing this on
	// top of Jini's overwrite-only registration.
	ErrAlreadyBound = errors.New("name already bound")
	// ErrNotContext indicates an intermediate name component resolved to
	// a non-context object (NotContextException).
	ErrNotContext = errors.New("not a context")
	// ErrContextNotEmpty indicates DestroySubcontext on a non-empty context.
	ErrContextNotEmpty = errors.New("context not empty")
	// ErrNotSupported indicates the provider does not implement the
	// operation (OperationNotSupportedException) — e.g. writes on the
	// read-only DNS provider.
	ErrNotSupported = errors.New("operation not supported")
	// ErrInvalidAttributes indicates malformed attribute modifications.
	ErrInvalidAttributes = errors.New("invalid attributes")
	// ErrNoPermission indicates the security layer rejected the operation.
	ErrNoPermission = errors.New("no permission")
	// ErrClosed indicates the context (or underlying connection) is closed.
	ErrClosed = errors.New("context closed")
	// ErrNoInitialContext indicates a plain (non-URL) name was used and
	// EnvProviderURL is not set.
	ErrNoInitialContext = errors.New("no initial context: provider URL not set")
	// ErrNoProvider indicates no provider is registered for a URL scheme.
	ErrNoProvider = errors.New("no provider for scheme")
	// ErrInvalidNameEmpty indicates an operation that requires a
	// non-empty name was given the empty name.
	ErrInvalidNameEmpty = errors.New("empty name")
)

// NamingError decorates a sentinel error with the operation and name, the
// analog of JNDI NamingException subclasses. Use errors.Is against the
// sentinels above.
type NamingError struct {
	Op   string // "lookup", "bind", ...
	Name string // name as given by the caller
	Err  error
}

func (e *NamingError) Error() string {
	return fmt.Sprintf("naming: %s %q: %v", e.Op, e.Name, e.Err)
}

func (e *NamingError) Unwrap() error { return e.Err }

// Errf wraps err in a NamingError for op/name. It returns nil if err is nil
// and leaves CannotProceedError undecorated (federation machinery needs it
// at the top level).
func Errf(op, name string, err error) error {
	if err == nil || proceeds(err) {
		return err
	}
	return &NamingError{Op: op, Name: name, Err: err}
}

// proceeds reports whether err is or wraps a *CannotProceedError. It is
// errors.As by type assertion down both Unwrap chains, without the
// target errors.As allocates (no error type here has an As method).
func proceeds(err error) bool {
	for {
		switch e := err.(type) {
		case *CannotProceedError:
			return true
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			return slices.ContainsFunc(e.Unwrap(), proceeds)
		default:
			return false
		}
	}
}

// OpErr labels a provider's failure of op once: by op.Kind.String() and
// op.Name, or op.NewName for an error marked OnNewName. Like Errf it
// keeps nil and a *CannotProceedError as they are.
func OpErr(op Op, err error) error {
	name := op.Name
	if ne, ok := err.(newNameError); ok {
		name, err = op.NewName, ne.error
	}
	return Errf(op.Kind.String(), name, err)
}

// OnNewName marks err as a failure of a Rename's new name, for OpErr.
func OnNewName(err error) error {
	if err == nil {
		return nil
	}
	return newNameError{err}
}

type newNameError struct{ error }

// InvalidNameError reports a malformed name.
type InvalidNameError struct {
	Name   string
	Reason string
}

func (e *InvalidNameError) Error() string {
	return fmt.Sprintf("naming: invalid name %q: %s", e.Name, e.Reason)
}

// CannotProceedError is the federation continuation signal
// (CannotProceedException). A provider raises it when resolution reaches an
// object that belongs to a foreign naming system while name components
// remain. The initial context resolves Resolved into a context (via the
// object factories and provider registry) and re-dispatches RemainingName
// to it — the mechanism behind §6 of the paper.
type CannotProceedError struct {
	// Resolved is the object at the federation boundary: a *Reference, a
	// URL string naming a foreign context, or a Context.
	Resolved any
	// RemainingName is the unresolved tail of the composite name.
	RemainingName Name
	// AltName names the boundary object, for diagnostics.
	AltName string
}

func (e *CannotProceedError) Error() string {
	return fmt.Sprintf("naming: cannot proceed at %q, remaining %q", e.AltName, e.RemainingName.String())
}

// LimitExceededError reports a search that hit its count limit; partial
// results are still returned alongside it.
type LimitExceededError struct {
	Limit int
}

func (e *LimitExceededError) Error() string {
	return fmt.Sprintf("naming: search limit of %d entries exceeded", e.Limit)
}

// TimeLimitExceededError reports a search that hit its
// SearchControls.TimeLimit (the analog of LDAP's timeLimitExceeded result,
// javax.naming.TimeLimitExceededException). Partial results gathered
// before the limit fired are returned alongside it.
type TimeLimitExceededError struct {
	Limit time.Duration
}

func (e *TimeLimitExceededError) Error() string {
	return fmt.Sprintf("naming: search time limit of %v exceeded", e.Limit)
}

// CtxErr returns ctx.Err() if ctx is already cancelled or past its
// deadline, else nil. Providers call it at operation entry and inside
// long-running loops; the result is wrapped by Errf so callers see
// context.Canceled / context.DeadlineExceeded through errors.Is while
// still getting the operation and name from the NamingError.
func CtxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// AuthenticationError reports failed authentication with a provider.
type AuthenticationError struct {
	Principal string
	Reason    string
}

func (e *AuthenticationError) Error() string {
	return fmt.Sprintf("naming: authentication of %q failed: %s", e.Principal, e.Reason)
}

// CommunicationError wraps transport-level failures so callers can
// distinguish them from semantic naming errors.
type CommunicationError struct {
	Endpoint string
	Err      error
}

func (e *CommunicationError) Error() string {
	return fmt.Sprintf("naming: communication with %s failed: %v", e.Endpoint, e.Err)
}

func (e *CommunicationError) Unwrap() error { return e.Err }

// ServiceUnavailableError reports that a service could not be reached on
// any of its endpoints — every candidate was down, breaker-open, or
// exhausted its retries (javax.naming.ServiceUnavailableException). It is
// the terminal form of CommunicationError: retrying immediately is
// pointless, failover has already happened.
type ServiceUnavailableError struct {
	// Endpoint is the last endpoint tried (or the whole authority when
	// no endpoint admitted an attempt).
	Endpoint string
	Err      error
}

func (e *ServiceUnavailableError) Error() string {
	return fmt.Sprintf("naming: service unavailable at %s: %v", e.Endpoint, e.Err)
}

func (e *ServiceUnavailableError) Unwrap() error { return e.Err }

// ServerBusyError reports that an endpoint shed a request — the
// transport's credit-based flow control or the server's admission
// controller refused to queue more work. The server is alive (this is an
// answered rejection, not a transport failure), so callers should back
// off and retry rather than fail over. Breakers must not count it as a
// failure.
type ServerBusyError struct {
	// Endpoint is the overloaded endpoint.
	Endpoint string
	// Op is the operation that was shed.
	Op string
	// RetryAfter is the server's hint for when capacity is expected
	// again: the admission controller's drain estimate or the token
	// bucket's refill time. Zero means the server offered no hint.
	// internal/retry honors it in place of exponential backoff.
	RetryAfter time.Duration
}

func (e *ServerBusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("naming: server %s busy: %s shed by admission control (retry after %v)", e.Endpoint, e.Op, e.RetryAfter)
	}
	return fmt.Sprintf("naming: server %s busy: %s shed by flow control", e.Endpoint, e.Op)
}

// RetryAfterHint returns the server-supplied backoff hint. It exists so
// packages that cannot import core (internal/retry) can discover the hint
// through an interface assertion.
func (e *ServerBusyError) RetryAfterHint() time.Duration { return e.RetryAfter }

// DataCorruptionError reports that a node's durable state failed
// integrity verification: a WAL segment with a checksum mismatch away
// from the torn-tail crash signature, a snapshot chunk whose CRC does
// not match, or a version chain with a hole. The damaged files have
// been quarantined aside — never silently replayed past — and the node
// starts degraded and repairs from a healthy replica (jgroups state
// transfer) instead of refusing to start or un-acking history.
type DataCorruptionError struct {
	// Path is the quarantined file (or the first of several).
	Path string
	// Detail says what failed verification.
	Detail string
	// Err is the underlying integrity error, when one exists.
	Err error
}

func (e *DataCorruptionError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("naming: durable state corrupt at %s: %s: %v", e.Path, e.Detail, e.Err)
	}
	return fmt.Sprintf("naming: durable state corrupt at %s: %s", e.Path, e.Detail)
}

func (e *DataCorruptionError) Unwrap() error { return e.Err }

// Package failover opens a provider context against a multi-endpoint
// authority: "host1:port1,host2:port2,…". Endpoints are tried in order,
// each gated by its process-wide circuit breaker, so a dead replica is
// skipped in O(1) once its breaker opens and re-probed only after the
// cooldown. All providers that dial a remote server route their Open
// through this package, which is what makes `gondi://a:1,b:2/path` URLs
// heal around a crashed replica.
//
// The package sits above core (it returns core errors) and beside the
// providers; core itself stays transport-agnostic.
package failover

import (
	"context"
	"errors"
	"strings"

	"gondi/internal/breaker"
	"gondi/internal/core"
	"gondi/internal/retry"
)

// DialFunc opens a context against one concrete endpoint. A DialFunc is
// expected to own its endpoint's breaker accounting — gate the wire
// attempt with Allow and settle it with Record/Cancel, as rpc.DialContext
// and ldapsrv.DialContext do. Open only *reads* breaker state (Ready) to
// order and skip endpoints; it never consumes the half-open probe slot
// itself, so a probe admitted after the cooldown always reaches the wire.
type DialFunc[T any] func(ctx context.Context, endpoint string) (T, error)

// Endpoints splits a (possibly comma-separated) authority into its
// endpoint list, dropping empty entries.
func Endpoints(authority string) []string {
	parts := strings.Split(authority, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// TransportClass reports whether err means "the backend did not answer"
// — dial or connection failure, breaker open, busy shed, unavailable,
// transient net error — so the caller should go elsewhere (another
// replica, a stale cache entry). A semantic answer from a live backend and the
// caller's own context ending are not transport-class.
func TransportClass(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ce *core.CommunicationError
	var sue *core.ServiceUnavailableError
	var sbe *core.ServerBusyError
	return errors.As(err, &ce) || errors.As(err, &sue) || errors.As(err, &sbe) ||
		errors.Is(err, breaker.ErrOpen) || retry.Transient(err)
}

// Open tries dial against each endpoint of authority in order. Endpoints
// whose breaker is not ready are skipped (their turn comes back after the
// cooldown via half-open probes). Breaker accounting — the Allow/Record
// pair, and Cancel on caller cancellation — is owned by the dial layer,
// exactly once per endpoint; Open itself records nothing, so a dial
// failure counts once against the trip threshold and the single half-open
// probe slot is consumed only by the attempt that touches the wire. An
// endpoint that answers — a refused secret, a bad locator — ends the
// loop with its error as-is: every replica would answer the same. When
// every endpoint fails to answer — or every breaker refused to admit an
// attempt — the error is a *core.ServiceUnavailableError wrapping the
// last failure.
func Open[T any](ctx context.Context, authority string, dial DialFunc[T]) (T, error) {
	var zero T
	eps := Endpoints(authority)
	if len(eps) == 0 {
		return zero, &core.ServiceUnavailableError{Endpoint: authority, Err: errors.New("no endpoints in authority")}
	}
	var lastErr error
	lastEp := eps[len(eps)-1]
	for _, ep := range eps {
		if err := core.CtxErr(ctx); err != nil {
			return zero, err
		}
		if !breaker.For(ep).Ready() {
			if lastErr == nil {
				lastErr, lastEp = breaker.ErrOpen, ep
			}
			continue
		}
		v, err := dial(ctx, ep)
		if err == nil {
			return v, nil
		}
		// A dial timeout is no answer; the caller's own ctx ends the loop above.
		if !TransportClass(err) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			return zero, err
		}
		lastErr, lastEp = err, ep
	}
	return zero, &core.ServiceUnavailableError{Endpoint: lastEp, Err: lastErr}
}

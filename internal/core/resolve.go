package core

import (
	"context"
	"errors"
)

// The name-resolution rule, held once. A provider resolves a name with
// its own store and keeps only a Probe: what is bound at one name.
// Resolve turns the probes into the JNDI answer, the same on every
// provider:
//   - a junction (a *Reference or a Context) met on the way is a
//     *CannotProceedError, the federation continuation;
//   - any other object on the way is ErrNotContext;
//   - a missing name on the way is ErrNotFound, for Unbind too;
//   - otherwise the provider's own answer stands, except that Unbind and
//     DestroySubcontext of a missing terminal name succeed.

// Bound is what a Probe found at one name.
type Bound uint8

const (
	// BoundNothing: no binding.
	BoundNothing Bound = iota
	// BoundContext: a context of the provider's own naming system.
	BoundContext
	// BoundObject: an object, which the probe returns beside it.
	BoundObject
)

// Probe says what is bound at exactly the name n. A provider states its
// deviations from the rule here, as data: one whose every entry can hold
// children reports each entry that is not a junction as a context.
type Probe func(ctx context.Context, n Name) (Bound, any, error)

// Resolve gives the answer to an operation of kind on full, in a context
// rooted at base, whose provider answered answer. A provider calls it
// with its failure, or with nil before an operation whose store cannot
// see the path. An answer other than nil, ErrNotFound or ErrNotContext is
// returned as it is, with no probe.
//
// Otherwise it probes the names strictly between base and full,
// shallowest first, and stops at the first that is not a context. List,
// ListBindings, Search and Watch also probe full: a junction there
// continues with no name remaining; a List of something that is not a
// context fails as on the way; a Search base that is a binding, and any
// Watch target, leave the answer to the provider. A failed probe is the
// answer, as it is.
func Resolve(ctx context.Context, kind OpKind, base, full Name, answer error, probe Probe) error {
	missing := errors.Is(answer, ErrNotFound)
	if answer != nil && !missing && !errors.Is(answer, ErrNotContext) {
		return answer
	}
	last := full.Size() - 1
	switch kind {
	case OpList, OpListBindings, OpSearch, OpWatch:
		last++
	}
	for i := base.Size() + 1; i <= last; i++ {
		at := full.Prefix(i)
		bound, obj, err := probe(ctx, at)
		if err != nil {
			return err
		}
		if bound == BoundContext {
			continue
		}
		if bound == BoundObject && IsJunction(obj) {
			return &CannotProceedError{Resolved: obj, RemainingName: full.Suffix(i), AltName: at.String()}
		}
		if i == full.Size() && (kind == OpWatch || kind == OpSearch && bound == BoundObject) {
			break
		}
		if bound == BoundNothing {
			return ErrNotFound
		}
		return ErrNotContext
	}
	if missing && (kind == OpUnbind || kind == OpDestroySubcontext) {
		return nil
	}
	return answer
}

// IsJunction reports whether a bound object leads into another naming
// system: a *Reference or a Context.
func IsJunction(obj any) bool {
	switch obj.(type) {
	case *Reference, Context:
		return true
	}
	return false
}

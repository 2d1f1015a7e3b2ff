package core

import (
	"context"
	"slices"
	"strings"
	"time"

	"gondi/internal/filter"
)

// The SearchControls rule, held once. A provider keeps only its own
// traversal: it walks its namespace (or reads a server's answer) and
// offers each entry to a Search, which decides what is in scope, when
// the walk must stop, what each result carries, how many come back and
// in which order.

// Covers reports whether an entry depth levels below the search base is
// in scope: the base alone for ScopeObject, its children for
// ScopeOneLevel, everything for ScopeSubtree. An unknown scope covers
// nothing.
func (s SearchScope) Covers(depth int) bool {
	switch s {
	case ScopeObject:
		return depth == 0
	case ScopeOneLevel:
		return depth == 1
	}
	return s == ScopeSubtree
}

// Descends reports whether a walk must look below an entry depth levels
// under the base: never for ScopeObject, below the base alone for
// ScopeOneLevel, always for ScopeSubtree.
func (s SearchScope) Descends(depth int) bool {
	return s == ScopeSubtree || (s == ScopeOneLevel && depth == 0)
}

// Search is one directory search under way.
type Search struct {
	// Controls are the search's controls: the op's, or a subtree search
	// with no limits when the op has none.
	Controls SearchControls
	ctx      context.Context
	filter   *filter.Node
	deadline time.Time
	hits     []searchHit
	stop     error
}

type searchHit struct {
	depth int
	SearchResult
}

// NewSearch starts the search op asks for: it parses op.Filter and, with
// SearchControls.TimeLimit, starts the clock.
func NewSearch(ctx context.Context, op Op) (*Search, error) {
	f, err := filter.Parse(op.Filter)
	if err != nil {
		return nil, err
	}
	s := &Search{Controls: SearchControls{Scope: ScopeSubtree}, ctx: ctx, filter: f}
	if op.Controls != nil {
		s.Controls = *op.Controls
	}
	if s.Controls.TimeLimit > 0 {
		s.deadline = time.Now().Add(s.Controls.TimeLimit)
	}
	return s, nil
}

// Stopped checks ctx and the time limit before a candidate: once either
// has fired the walk must end, and Done reports why.
func (s *Search) Stopped() bool {
	if s.stop == nil {
		if err := CtxErr(s.ctx); err != nil {
			s.stop = err
		} else if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
			s.stop = &TimeLimitExceededError{Limit: s.Controls.TimeLimit}
		}
	}
	return s.stop != nil
}

// Match reports whether an entry depth levels below the base with attrs
// is in scope and passes the filter.
func (s *Search) Match(depth int, attrs *Attributes) bool {
	return s.Controls.Scope.Covers(depth) && attrs.MatchesFilter(s.filter)
}

// Add records a match at rel, relative to the base: a context (class
// ContextReferenceClass, no object) or the bound obj, returned when the
// controls ask for objects. Its attributes are those the controls select.
func (s *Search) Add(rel Name, attrs *Attributes, obj any, isContext bool) {
	r := SearchResult{Name: rel.String(), Attributes: attrs.Select(s.Controls.ReturnAttrs...)}
	if isContext {
		r.Class = ContextReferenceClass
	} else {
		r.Class = ClassOf(obj)
		if s.Controls.ReturnObject {
			r.Object = obj
		}
	}
	s.hits = append(s.hits, searchHit{rel.Size(), r})
}

// Done returns the results shallowest first, then by name. With a
// CountLimit of N it returns at most N, and a *LimitExceededError only
// when an (N+1)-th match was found (RFC 4511 sizeLimit). A search that
// Stopped returns what it gathered with ctx's error or a
// *TimeLimitExceededError.
func (s *Search) Done() ([]SearchResult, error) {
	slices.SortFunc(s.hits, func(a, b searchHit) int {
		if a.depth != b.depth {
			return a.depth - b.depth
		}
		return strings.Compare(a.Name, b.Name)
	})
	stop, hits := s.stop, s.hits
	if n := s.Controls.CountLimit; n > 0 && len(hits) > n {
		hits = hits[:n]
		if stop == nil {
			stop = &LimitExceededError{Limit: n}
		}
	}
	out := make([]SearchResult, len(hits))
	for i, h := range hits {
		out[i] = h.SearchResult
	}
	return out, stop
}

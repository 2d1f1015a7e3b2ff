package core

import "context"

// BatchResult is the outcome of one item in a batched operation. Batched
// operations are not all-or-nothing: every item gets its own result, in
// the order it was submitted, and an item's failure is reported here
// rather than failing the whole batch.
type BatchResult struct {
	// Value is the item's result (lookup object, *Attributes, ...); nil
	// for operations without a value and for failed items.
	Value any
	// Err is the item's typed failure, nil on success.
	Err error
}

// BindRequest describes one bind in a BindMany batch.
type BindRequest struct {
	Name string
	Obj  any
	// Attrs, when non-nil, binds with attributes (DirContext.BindAttrs).
	Attrs *Attributes
}

// BatchContext is the optional capability for contexts that can answer
// many operations in one round trip. Callers discover it by type
// assertion; the package-level LookupMany/BindMany/GetAttributesMany
// helpers do that and fall back to a per-item loop, so batching is always
// an optimization, never a semantic change.
//
// Contract: the result slice has exactly one entry per input, in input
// order; per-item failures are reported in BatchResult.Err with the same
// typed errors the unary operation would return. The batch-level error is
// reserved for failures that prevented the batch from running at all
// (context cancellation, connection loss).
type BatchContext interface {
	LookupMany(ctx context.Context, names []string) ([]BatchResult, error)
	BindMany(ctx context.Context, reqs []BindRequest) ([]BatchResult, error)
	GetAttributesMany(ctx context.Context, names []string, attrIDs ...string) ([]BatchResult, error)
}

// LookupMany looks up many names on c, natively batched when c implements
// BatchContext, per-item otherwise (see Do). Results are positional:
// out[i] is names[i]'s object or typed error.
func LookupMany(ctx context.Context, c Context, names []string) ([]BatchResult, error) {
	res, err := Do(ctx, c, Op{Kind: OpLookupMany, Names: names})
	return res.Batch, err
}

// BindMany binds many name/object pairs on c, natively batched when c
// implements BatchContext. Each result's Err carries that item's typed
// failure; Value is always nil.
func BindMany(ctx context.Context, c Context, reqs []BindRequest) ([]BatchResult, error) {
	res, err := Do(ctx, c, Op{Kind: OpBindMany, Binds: reqs})
	return res.Batch, err
}

// GetAttributesMany fetches attributes for many names on c, natively
// batched when c implements BatchContext. Each success's Value is the
// item's *Attributes.
func GetAttributesMany(ctx context.Context, c Context, names []string, attrIDs ...string) ([]BatchResult, error) {
	res, err := Do(ctx, c, Op{Kind: OpGetAttributesMany, Names: names, AttrIDs: attrIDs})
	return res.Batch, err
}

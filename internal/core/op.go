package core

import (
	"context"
	"slices"
	"strings"
)

// A naming operation as a value. The typed Context/DirContext/
// EventContext/BatchContext surface is what callers speak; everything
// below it — InitialContext, metering, caching and the providers —
// answers an Op in its Do. This file is the only place that knows how
// the two map onto each other: the adapters (OpContext, EventOpContext,
// BatchOpContext) turn the typed calls into Ops, and Do turns an Op back
// into a typed call for a context that is not a Doer.

// OpKind names an operation. The *Attrs variants of Bind, Rebind and
// CreateSubcontext are the same kind with Op.Dir set, which is why they
// meter, trace and fail under the base name.
type OpKind uint8

// The operation kinds, in the order of the interfaces that declare them:
// Context, DirContext, EventContext, BatchContext.
const (
	OpLookup OpKind = iota
	OpLookupLink
	OpBind
	OpRebind
	OpUnbind
	OpRename
	OpList
	OpListBindings
	OpCreateSubcontext
	OpDestroySubcontext
	OpGetAttributes
	OpModifyAttributes
	OpSearch
	OpWatch
	OpLookupMany
	OpBindMany
	OpGetAttributesMany
	NumOpKinds
)

var opKindNames = [NumOpKinds]string{
	"lookup", "lookupLink", "bind", "rebind", "unbind", "rename",
	"list", "listBindings", "createSubcontext", "destroySubcontext",
	"getAttributes", "modifyAttributes", "search", "watch",
	"lookupMany", "bindMany", "getAttributesMany",
}

// String is the operation's label in errors, metrics and traces.
func (k OpKind) String() string {
	if k < NumOpKinds {
		return opKindNames[k]
	}
	return "?"
}

// Op is one operation's arguments. Only the fields its Kind reads are
// set; it is passed by value and never retained.
type Op struct {
	Kind OpKind
	// Dir selects the DirContext variant of Bind, Rebind and
	// CreateSubcontext (BindAttrs, RebindAttrs, CreateSubcontextAttrs);
	// no other kind has one.
	Dir      bool
	Name     string // every unary kind; Watch's target
	NewName  string // Rename
	Obj      any    // Bind, Rebind
	Attrs    *Attributes
	AttrIDs  []string       // GetAttributes, GetAttributesMany
	Mods     []AttributeMod // ModifyAttributes
	Filter   string         // Search
	Controls *SearchControls
	Scope    SearchScope   // Watch
	Listener Listener      // Watch
	Names    []string      // LookupMany, GetAttributesMany
	Binds    []BindRequest // BindMany
}

// Result is one operation's value. Kinds that return only an error leave
// it zero.
type Result struct {
	Value    any             // Lookup, LookupLink
	Pairs    []NameClassPair // List
	Bindings []Binding       // ListBindings
	Context  Context         // CreateSubcontext (a DirContext when Op.Dir)
	Attrs    *Attributes     // GetAttributes
	Found    []SearchResult  // Search
	Cancel   func()          // Watch
	Batch    []BatchResult   // the three batch kinds
}

// Doer handles operations as values: the one method a decorator writes.
type Doer interface {
	Do(ctx context.Context, op Op) (Result, error)
}

// needsDir reports whether op can only run on a DirContext.
func needsDir(op Op) bool {
	switch op.Kind {
	case OpGetAttributes, OpModifyAttributes, OpSearch:
		return true
	}
	return op.Dir
}

// spelled reports whether a typed method spells op: Dir selects the
// directory variant of Bind, Rebind and CreateSubcontext and changes
// nothing on a kind that is a directory operation anyway.
func spelled(op Op) bool {
	switch op.Kind {
	case OpBind, OpRebind, OpCreateSubcontext, OpGetAttributes, OpModifyAttributes, OpSearch:
		return true
	}
	return !op.Dir
}

// isBatch reports whether k is one of the three batch kinds.
func isBatch(k OpKind) bool {
	return k == OpLookupMany || k == OpBindMany || k == OpGetAttributesMany
}

// Supports reports whether c has the capability op needs: DirContext for
// the directory kinds, EventContext for Watch, DirContext or BatchContext
// for GetAttributesMany. Do fails an unsupported op with ErrNotSupported;
// a decorator asks first when the refusal must not count as work (obs
// does not meter it) or must name the caller's name rather than a
// rewritten one (InitialContext).
func Supports(c Context, op Op) bool {
	var ok bool
	switch {
	case op.Kind == OpWatch:
		_, ok = c.(EventContext)
	case op.Kind == OpGetAttributesMany:
		if _, ok = c.(BatchContext); !ok {
			_, ok = c.(DirContext)
		}
	case needsDir(op):
		_, ok = c.(DirContext)
	default:
		ok = true
	}
	return ok
}

// Do runs op on c: through c's own Do when c is a Doer (every provider
// and decorator), else through c's typed method. A batch kind on a
// context without BatchContext runs item by item (DoItems), so batching
// is an optimization, never a semantic change.
func Do(ctx context.Context, c Context, op Op) (res Result, err error) {
	if !Supports(c, op) || !spelled(op) {
		return res, Errf(op.Kind.String(), op.Name, ErrNotSupported)
	}
	if isBatch(op.Kind) {
		if _, ok := c.(BatchContext); !ok {
			res.Batch, err = DoItems(ctx, c, op)
			return res, err
		}
	}
	if d, ok := c.(Doer); ok {
		return d.Do(ctx, op)
	}
	if needsDir(op) {
		d := c.(DirContext)
		switch op.Kind {
		case OpBind:
			err = d.BindAttrs(ctx, op.Name, op.Obj, op.Attrs)
		case OpRebind:
			err = d.RebindAttrs(ctx, op.Name, op.Obj, op.Attrs)
		case OpCreateSubcontext:
			var sub DirContext
			if sub, err = d.CreateSubcontextAttrs(ctx, op.Name, op.Attrs); err == nil {
				res.Context = sub
			}
		case OpGetAttributes:
			res.Attrs, err = d.GetAttributes(ctx, op.Name, op.AttrIDs...)
		case OpModifyAttributes:
			err = d.ModifyAttributes(ctx, op.Name, op.Mods)
		default:
			res.Found, err = d.Search(ctx, op.Name, op.Filter, op.Controls)
		}
		return res, err
	}
	switch op.Kind {
	case OpLookup:
		res.Value, err = c.Lookup(ctx, op.Name)
	case OpLookupLink:
		res.Value, err = c.LookupLink(ctx, op.Name)
	case OpBind:
		err = c.Bind(ctx, op.Name, op.Obj)
	case OpRebind:
		err = c.Rebind(ctx, op.Name, op.Obj)
	case OpUnbind:
		err = c.Unbind(ctx, op.Name)
	case OpRename:
		err = c.Rename(ctx, op.Name, op.NewName)
	case OpList:
		res.Pairs, err = c.List(ctx, op.Name)
	case OpListBindings:
		res.Bindings, err = c.ListBindings(ctx, op.Name)
	case OpCreateSubcontext:
		res.Context, err = c.CreateSubcontext(ctx, op.Name)
	case OpDestroySubcontext:
		err = c.DestroySubcontext(ctx, op.Name)
	case OpWatch:
		res.Cancel, err = c.(EventContext).Watch(ctx, op.Name, op.Scope, op.Listener)
	case OpLookupMany:
		res.Batch, err = c.(BatchContext).LookupMany(ctx, op.Names)
	case OpBindMany:
		res.Batch, err = c.(BatchContext).BindMany(ctx, op.Binds)
	case OpGetAttributesMany:
		res.Batch, err = c.(BatchContext).GetAttributesMany(ctx, op.Names, op.AttrIDs...)
	default:
		err = Errf(op.Kind.String(), op.Name, ErrNotSupported)
	}
	return res, err
}

// DoItems runs a batch op on c item by item through the matching unary
// kind, checking ctx between items: the batch of a context without a
// native one, and of a provider whose native batch would change an
// item's semantics.
func DoItems(ctx context.Context, c Context, op Op) ([]BatchResult, error) {
	out := make([]BatchResult, op.Len())
	for i := range out {
		if err := CtxErr(ctx); err != nil {
			return nil, err
		}
		out[i] = ItemResult(Do(ctx, c, op.Item(i)))
	}
	return out, nil
}

// ItemResult is a unary result as one position of a batch: the looked-up
// object or the *Attributes as Value, nothing for a bind or a failure.
func ItemResult(res Result, err error) BatchResult {
	switch {
	case err != nil:
		return BatchResult{Err: err}
	case res.Attrs != nil:
		return BatchResult{Value: res.Attrs}
	}
	return BatchResult{Value: res.Value}
}

// ListResult answers List or ListBindings from the bindings of the listed
// context, sorted by name: ListBindings gets them as they are, List their
// names and classes.
func ListResult(kind OpKind, bs []Binding) Result {
	slices.SortFunc(bs, func(a, b Binding) int { return strings.Compare(a.Name, b.Name) })
	if kind == OpListBindings {
		return Result{Bindings: bs}
	}
	pairs := make([]NameClassPair, len(bs))
	for i, b := range bs {
		pairs[i] = NameClassPair{Name: b.Name, Class: b.Class}
	}
	return Result{Pairs: pairs}
}

// Len is the number of items of a batch op.
func (op Op) Len() int {
	if op.Kind == OpBindMany {
		return len(op.Binds)
	}
	return len(op.Names)
}

// Item is the unary operation for position i of a batch op: Lookup, Bind
// (BindAttrs when the request carries attributes) or GetAttributes.
func (op Op) Item(i int) Op {
	switch op.Kind {
	case OpLookupMany:
		return Op{Kind: OpLookup, Name: op.Names[i]}
	case OpBindMany:
		r := op.Binds[i]
		return Op{Kind: OpBind, Dir: r.Attrs != nil, Name: r.Name, Obj: r.Obj, Attrs: r.Attrs}
	default:
		return Op{Kind: OpGetAttributes, Name: op.Names[i], AttrIDs: op.AttrIDs}
	}
}

// The typed surface over a Doer comes in three adapters, one per set of
// capabilities, so that a type embeds exactly what it has and Supports
// (a type assertion) stays truthful on it. The embedder points Doer at
// itself once at construction and writes Do plus NameInNamespace,
// Environment and Close.
//
//   - OpContext is Context and DirContext: dnssp, fssp, jxtasp, ldapsp.
//   - EventOpContext adds EventContext: memsp.
//   - BatchOpContext adds BatchContext as well: hdnssp, jinisp and the
//     decorators (InitialContext, obs, cache), whose Do answers the
//     three batch kinds as whole batches.
type OpContext struct {
	Doer Doer
}

// EventOpContext is OpContext plus EventContext.
type EventOpContext struct {
	OpContext
}

// BatchOpContext is EventOpContext plus BatchContext.
type BatchOpContext struct {
	EventOpContext
}

// Lookup implements Context.
func (o *OpContext) Lookup(ctx context.Context, name string) (any, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpLookup, Name: name})
	return res.Value, err
}

// LookupLink implements Context.
func (o *OpContext) LookupLink(ctx context.Context, name string) (any, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpLookupLink, Name: name})
	return res.Value, err
}

// Bind implements Context.
func (o *OpContext) Bind(ctx context.Context, name string, obj any) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpBind, Name: name, Obj: obj})
	return err
}

// Rebind implements Context.
func (o *OpContext) Rebind(ctx context.Context, name string, obj any) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpRebind, Name: name, Obj: obj})
	return err
}

// Unbind implements Context.
func (o *OpContext) Unbind(ctx context.Context, name string) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpUnbind, Name: name})
	return err
}

// Rename implements Context.
func (o *OpContext) Rename(ctx context.Context, oldName, newName string) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpRename, Name: oldName, NewName: newName})
	return err
}

// List implements Context.
func (o *OpContext) List(ctx context.Context, name string) ([]NameClassPair, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpList, Name: name})
	return res.Pairs, err
}

// ListBindings implements Context.
func (o *OpContext) ListBindings(ctx context.Context, name string) ([]Binding, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpListBindings, Name: name})
	return res.Bindings, err
}

// CreateSubcontext implements Context.
func (o *OpContext) CreateSubcontext(ctx context.Context, name string) (Context, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpCreateSubcontext, Name: name})
	return res.Context, err
}

// DestroySubcontext implements Context.
func (o *OpContext) DestroySubcontext(ctx context.Context, name string) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpDestroySubcontext, Name: name})
	return err
}

// BindAttrs implements DirContext.
func (o *OpContext) BindAttrs(ctx context.Context, name string, obj any, attrs *Attributes) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpBind, Dir: true, Name: name, Obj: obj, Attrs: attrs})
	return err
}

// RebindAttrs implements DirContext.
func (o *OpContext) RebindAttrs(ctx context.Context, name string, obj any, attrs *Attributes) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpRebind, Dir: true, Name: name, Obj: obj, Attrs: attrs})
	return err
}

// GetAttributes implements DirContext.
func (o *OpContext) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*Attributes, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpGetAttributes, Name: name, AttrIDs: attrIDs})
	return res.Attrs, err
}

// ModifyAttributes implements DirContext.
func (o *OpContext) ModifyAttributes(ctx context.Context, name string, mods []AttributeMod) error {
	_, err := o.Doer.Do(ctx, Op{Kind: OpModifyAttributes, Name: name, Mods: mods})
	return err
}

// Search implements DirContext.
func (o *OpContext) Search(ctx context.Context, name, filterStr string, controls *SearchControls) ([]SearchResult, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpSearch, Name: name, Filter: filterStr, Controls: controls})
	return res.Found, err
}

// CreateSubcontextAttrs implements DirContext. A Do that answers a Dir
// create with a context lacking the directory surface has not created a
// DirContext; that is reported, not returned as a nil interface.
func (o *OpContext) CreateSubcontextAttrs(ctx context.Context, name string, attrs *Attributes) (DirContext, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpCreateSubcontext, Dir: true, Name: name, Attrs: attrs})
	if err != nil {
		return nil, err
	}
	d, ok := res.Context.(DirContext)
	if !ok {
		return nil, Errf("createSubcontext", name, ErrNotSupported)
	}
	return d, nil
}

// Watch implements EventContext.
func (o *EventOpContext) Watch(ctx context.Context, target string, scope SearchScope, l Listener) (func(), error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpWatch, Name: target, Scope: scope, Listener: l})
	return res.Cancel, err
}

// LookupMany implements BatchContext.
func (o *BatchOpContext) LookupMany(ctx context.Context, names []string) ([]BatchResult, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpLookupMany, Names: names})
	return res.Batch, err
}

// BindMany implements BatchContext.
func (o *BatchOpContext) BindMany(ctx context.Context, reqs []BindRequest) ([]BatchResult, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpBindMany, Binds: reqs})
	return res.Batch, err
}

// GetAttributesMany implements BatchContext.
func (o *BatchOpContext) GetAttributesMany(ctx context.Context, names []string, attrIDs ...string) ([]BatchResult, error) {
	res, err := o.Doer.Do(ctx, Op{Kind: OpGetAttributesMany, Names: names, AttrIDs: attrIDs})
	return res.Batch, err
}

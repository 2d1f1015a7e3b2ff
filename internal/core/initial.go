package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// maxFederationHops bounds continuation chains to catch reference cycles.
const maxFederationHops = 16

// InitialContext is the client's entry point into the composite name space
// (the analog of javax.naming.InitialDirContext). URL-form names are
// dispatched to the provider registered for their scheme; plain names go to
// the default context configured via EnvInitialFactory. Resolution follows
// federation continuations across naming-system boundaries transparently,
// propagating the caller's context.Context across every hop so a single
// deadline bounds the whole chain.
type InitialContext struct {
	BatchOpContext // the typed surface, spelled over Do

	env map[string]any

	mu       sync.Mutex // guards the lazy default-context fields
	defCtx   Context    // lazily created
	defErr   error
	resolved bool

	// mws, when non-empty, intercept resolution (see Middleware), stored
	// outermost first: URL opens route through the composed openFn chain
	// and the default context is wrapped innermost-out. Installed by
	// Open(WithMiddleware(...), WithCache(...)); empty otherwise.
	mws    []Middleware
	openFn OpenURLFunc // composed chain, nil when mws is empty

	// roots holds one opened provider root per scheme://authority: the
	// base of the URL resolution chain, closed by Close.
	roots rootTable
}

// NewInitialContext creates an initial context with the given environment
// (may be nil). The default context, if configured, is created lazily on
// first use of a non-URL name.
func NewInitialContext(env map[string]any) *InitialContext {
	e := make(map[string]any, len(env))
	for k, v := range env {
		e[k] = v
	}
	ic := &InitialContext{env: e}
	ic.Doer = ic
	return ic
}

// Environment returns the environment map (shared, not a copy).
func (ic *InitialContext) Environment() map[string]any { return ic.env }

// installMiddleware appends a resolution middleware (outermost first) and
// recomposes the URL-open chain; call before first use.
func (ic *InitialContext) installMiddleware(mw Middleware) {
	ic.mws = append(ic.mws, mw)
	// Compose innermost-out: the base resolver is the root table, and each
	// middleware decorates the layer below it.
	fn := OpenURLFunc(ic.roots.open)
	for i := len(ic.mws) - 1; i >= 0; i-- {
		mw, next := ic.mws[i], fn
		fn = func(ctx context.Context, rawURL string, env map[string]any) (Context, Name, error) {
			return mw.OpenURLNext(ctx, rawURL, env, next)
		}
	}
	ic.openFn = fn
}

// openURL dispatches a URL-form name through the middleware chain, if
// installed, else straight to the held roots.
func (ic *InitialContext) openURL(ctx context.Context, rawURL string) (Context, Name, error) {
	if ic.openFn != nil {
		return ic.openFn(ctx, rawURL, ic.env)
	}
	return ic.roots.open(ctx, rawURL, ic.env)
}

// begin runs every middleware's BeginOp hook (outermost first) and
// returns the derived context plus a finish that unwinds them innermost
// first. With no observers it returns ctx and a no-op.
func (ic *InitialContext) begin(ctx context.Context, op, name string) (context.Context, func(error)) {
	var finishes []func(error)
	for _, mw := range ic.mws {
		if o, ok := mw.(OpObserver); ok {
			var fin func(error)
			ctx, fin = o.BeginOp(ctx, op, name)
			if fin != nil {
				finishes = append(finishes, fin)
			}
		}
	}
	if len(finishes) == 0 {
		return ctx, func(error) {}
	}
	return ctx, func(err error) {
		for i := len(finishes) - 1; i >= 0; i-- {
			finishes[i](err)
		}
	}
}

func (ic *InitialContext) defaultContext(ctx context.Context) (Context, error) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.resolved {
		return ic.defCtx, ic.defErr
	}
	ic.resolved = true
	name, _ := ic.env[EnvInitialFactory].(string)
	if name == "" {
		ic.defErr = ErrNoInitialContext
		return nil, ic.defErr
	}
	f, ok := initialFactory(name)
	if !ok {
		ic.defErr = fmt.Errorf("naming: initial context factory %q not registered", name)
		return nil, ic.defErr
	}
	ic.defCtx, ic.defErr = f(ctx, ic.env)
	if ic.defErr == nil {
		// Wrap innermost-out so the outermost middleware observes the
		// whole stack below it (obs outside cache).
		for i := len(ic.mws) - 1; i >= 0; i-- {
			ic.defCtx = ic.mws[i].WrapContext(ic.defCtx)
		}
	}
	return ic.defCtx, ic.defErr
}

// resolve maps a caller name to (context, name-within-context).
func (ic *InitialContext) resolve(ctx context.Context, name string) (Context, Name, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, Name{}, err
	}
	if IsURLName(name) {
		return ic.openURL(ctx, name)
	}
	c, err := ic.defaultContext(ctx)
	if err != nil {
		return nil, Name{}, err
	}
	n, err := ParseName(name)
	if err != nil {
		return nil, Name{}, err
	}
	return c, n, nil
}

// objectFromReference turns a stored Reference into an application object,
// routing plain context references (URL address, no named factory) through
// the resolution chain so federation hops share the held roots (and the
// middleware's cached wire clients). wantCtx is set when the caller knows
// the reference marks a naming-system boundary (so the target must be a
// context): the middleware may then return a rebased view instead of a
// remote lookup. Otherwise the result goes to the caller, who may Close
// it, so a bare root is handed out borrowed.
func (ic *InitialContext) objectFromReference(ctx context.Context, ref *Reference, wantCtx bool) (any, error) {
	if url, ok := ref.Get(AddrURL); ok && ref.Factory == "" {
		c, rest, err := ic.openURL(ctx, url)
		if err != nil {
			return nil, err
		}
		if rest.IsEmpty() {
			if wantCtx {
				return c, nil
			}
			return borrow(c), nil
		}
		if v, ok := c.(ContextViewer); ok && wantCtx {
			return v.View(rest), nil
		}
		return c.Lookup(ctx, rest.String())
	}
	return GetObjectInstance(ctx, ref, Name{}, ic.env)
}

// continueCtx turns a CannotProceedError's resolved object into the next
// context to dispatch to.
func (ic *InitialContext) continueCtx(ctx context.Context, cpe *CannotProceedError) (Context, error) {
	switch r := cpe.Resolved.(type) {
	case Context:
		return r, nil
	case *Reference:
		obj, err := ic.objectFromReference(ctx, r, true)
		if err != nil {
			return nil, err
		}
		if c, ok := obj.(Context); ok {
			return c, nil
		}
		if link, ok := obj.(LinkRef); ok {
			target, err := ic.Lookup(ctx, link.Target)
			if err != nil {
				return nil, err
			}
			if c, ok := target.(Context); ok {
				return c, nil
			}
		}
		return nil, fmt.Errorf("naming: federation boundary at %q did not resolve to a context (%T)", cpe.AltName, obj)
	case string:
		c, rest, err := ic.openURL(ctx, r)
		if err != nil {
			return nil, err
		}
		if !rest.IsEmpty() {
			if v, ok := c.(ContextViewer); ok {
				return v.View(rest), nil
			}
			obj, err := c.Lookup(ctx, rest.String())
			if err != nil {
				return nil, err
			}
			if cc, ok := obj.(Context); ok {
				return cc, nil
			}
			return nil, fmt.Errorf("naming: URL %q did not resolve to a context", r)
		}
		return c, nil
	default:
		return nil, fmt.Errorf("naming: cannot continue past %q: unsupported boundary object %T", cpe.AltName, cpe.Resolved)
	}
}

// run dispatches op to (c, rest), following federation continuations
// until it succeeds or fails with a non-continuation error. The caller's
// ctx is checked before every hop, so a deadline or cancel fires between
// hops even when each individual hop is fast. op.Name is the caller's name
// on entry — a hop that lacks the capability is reported against it — and
// each hop then sees the name relative to itself.
func (ic *InitialContext) run(ctx context.Context, c Context, rest Name, op Op) (Result, error) {
	name := op.Name
	for hop := 0; ; hop++ {
		if hop > maxFederationHops {
			return Result{}, fmt.Errorf("naming: too many federation hops (cycle?)")
		}
		if err := CtxErr(ctx); err != nil {
			return Result{}, err
		}
		if !Supports(c, op) {
			return Result{}, Errf(op.Kind.String(), name, ErrNotSupported)
		}
		op.Name = rest.String()
		res, err := Do(ctx, c, op)
		var cpe *CannotProceedError
		if !errors.As(err, &cpe) {
			return res, err
		}
		next, cerr := ic.continueCtx(ctx, cpe)
		if cerr != nil {
			return Result{}, cerr
		}
		c, rest = next, cpe.RemainingName
	}
}

// postProcess converts raw provider results (references, links) into
// application objects. depth counts link-follow steps across nested
// lookups to terminate link cycles.
func (ic *InitialContext) postProcess(ctx context.Context, obj any, name string, depth int) (any, error) {
	if depth > maxFederationHops {
		return nil, fmt.Errorf("naming: reference/link chain too deep (cycle?) at %q after %d hops", name, depth)
	}
	if ref, ok := obj.(*Reference); ok {
		out, err := ic.objectFromReference(ctx, ref, false)
		if err != nil {
			return nil, err
		}
		obj = out
	}
	if link, ok := obj.(LinkRef); ok {
		return ic.lookupDepth(ctx, link.Target, depth+1)
	}
	return obj, nil
}

// lookupDepth is Lookup below the BeginOp bracket: resolve, walk the
// federation, then run object factories and follow links.
func (ic *InitialContext) lookupDepth(ctx context.Context, name string, depth int) (any, error) {
	if depth > maxFederationHops {
		return nil, fmt.Errorf("naming: reference/link chain too deep (cycle?) at %q after %d hops", name, depth)
	}
	c, rest, err := ic.resolve(ctx, name)
	if err != nil {
		return nil, Errf("lookup", name, err)
	}
	res, err := ic.run(ctx, c, rest, Op{Kind: OpLookup, Name: name})
	if err != nil {
		return nil, err
	}
	return ic.postProcess(ctx, res.Value, name, depth)
}

// stateToBind runs the state factories on obj and merges the attributes
// they add over the caller's (GetStateToBind contract).
func (ic *InitialContext) stateToBind(obj any, attrs *Attributes, rest Name) (any, *Attributes, error) {
	state, extra, err := GetStateToBind(obj, rest, ic.env)
	if err != nil || extra == nil {
		return state, attrs, err
	}
	merged := attrs.Clone() // nil-safe, so attrs == nil works too
	for _, a := range extra.All() {
		merged.Put(a.ID, a.Values...)
	}
	return state, merged, nil
}

// renameTarget maps Rename's new name into the naming system the old name
// resolved to: both must be plain, or URL names with one scheme and
// authority, of which the path part is used.
func renameTarget(oldName, newName string) (Name, error) {
	if IsURLName(oldName) != IsURLName(newName) {
		return Name{}, fmt.Errorf("old and new names in different naming systems")
	}
	if !IsURLName(newName) {
		return ParseName(newName)
	}
	ou, _ := ParseURLName(oldName)
	nu, err := ParseURLName(newName)
	if err != nil {
		return Name{}, err
	}
	if ou.Scheme != nu.Scheme || ou.Authority != nu.Authority {
		return Name{}, fmt.Errorf("cannot rename across naming systems")
	}
	return nu.Path, nil
}

// Do is every operation of the composite name space: bracket it with the
// middleware's BeginOp hooks, resolve the name to (context, remaining
// name), and run it across the federation. What differs per kind:
//
//   - Lookup runs object factories on the result and follows links;
//     LookupLink runs the factories but returns a terminal link as is.
//   - Bind and Rebind apply state factories first; attributes — the
//     caller's or the factories' — make it the directory variant.
//   - Rename moves a binding within one naming system.
//   - The batch kinds group their items by target (initial_batch.go).
//   - Directory kinds and Watch fail with ErrNotSupported, against the
//     caller's name, on a hop whose context lacks the capability.
func (ic *InitialContext) Do(ctx context.Context, op Op) (res Result, err error) {
	label, name := op.Kind.String(), op.Name
	switch op.Kind {
	case OpLookupMany, OpGetAttributesMany:
		name = fmt.Sprintf("[%d names]", len(op.Names))
	case OpBindMany:
		name = fmt.Sprintf("[%d names]", len(op.Binds))
	}
	ctx, finish := ic.begin(ctx, label, name)
	defer func() { finish(err) }()
	switch op.Kind {
	case OpLookupMany, OpBindMany, OpGetAttributesMany:
		res.Batch, err = ic.doBatch(ctx, op)
		return res, err
	case OpLookup:
		res.Value, err = ic.lookupDepth(ctx, op.Name, 0)
		return res, err
	}
	c, rest, err := ic.resolve(ctx, op.Name)
	if err != nil {
		return Result{}, Errf(label, op.Name, err)
	}
	switch op.Kind {
	case OpBind, OpRebind:
		if op.Obj, op.Attrs, err = ic.stateToBind(op.Obj, op.Attrs, rest); err != nil {
			return Result{}, Errf(label, op.Name, err)
		}
		op.Dir = op.Attrs != nil
	case OpRename:
		newRest, err := renameTarget(op.Name, op.NewName)
		if err != nil {
			return Result{}, Errf(label, op.NewName, err)
		}
		op.NewName = newRest.String()
	}
	res, err = ic.run(ctx, c, rest, op)
	if ref, ok := res.Value.(*Reference); ok && err == nil && op.Kind == OpLookupLink {
		res.Value, err = ic.objectFromReference(ctx, ref, false)
	}
	return res, err
}

// Close closes the default context, if one was created, shuts down any
// installed resolution middleware (cached connections, watches) and
// closes every held provider root once. Contexts handed out earlier that
// lean on a root (looked-up subcontexts, borrowed roots) fail afterwards.
func (ic *InitialContext) Close() error {
	ic.mu.Lock()
	defCtx := ic.defCtx
	ic.mu.Unlock()
	var err error
	if defCtx != nil {
		err = defCtx.Close()
	}
	for _, mw := range ic.mws {
		if merr := mw.Close(); err == nil {
			err = merr
		}
	}
	if rerr := ic.roots.close(); err == nil {
		err = rerr
	}
	return err
}

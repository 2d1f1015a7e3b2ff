package core

import (
	"context"
	"errors"
	"fmt"
)

// maxFederationHops bounds continuation chains to catch reference cycles.
const maxFederationHops = 16

// InitialContext is the client's entry point into the composite name space
// (the analog of javax.naming.InitialDirContext). Every name resolves by
// one rule: a URL's path is prefixed onto the remaining name at the held
// root of its scheme://authority. A URL-form name is dispatched that way
// to the provider registered for its scheme; a plain name is the same name
// under EnvProviderURL (JNDI's PROVIDER_URL). Resolution follows federation
// continuations across naming-system boundaries transparently, propagating
// the caller's context.Context across every hop so a single deadline bounds
// the whole chain. Open builds one.
type InitialContext struct {
	BatchOpContext // the typed surface, spelled over Do

	env map[string]any

	// mws, when non-empty, intercept resolution (see Middleware), stored
	// outermost first: URL opens route through the composed openFn chain.
	// Installed by Open(WithMiddleware(...), WithCache(...)); empty
	// otherwise.
	mws    []Middleware
	openFn OpenURLFunc // composed chain, nil when mws is empty

	// roots holds one opened provider root per scheme://authority: the
	// base of every name's resolution, closed by Close.
	roots rootTable
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

// resolve maps a caller name to (context, name-within-context): a URL's
// held root and path, or a plain name prefixed by EnvProviderURL's path at
// that URL's held root.
func (ic *InitialContext) resolve(ctx context.Context, name string) (Context, Name, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, Name{}, err
	}
	if IsURLName(name) {
		return ic.openURL(ctx, name)
	}
	n, err := ParseName(name)
	if err != nil {
		return nil, Name{}, err
	}
	url, err := ic.providerURL()
	if err != nil {
		return nil, Name{}, err
	}
	c, base, err := ic.openURL(ctx, url)
	if err != nil {
		return nil, Name{}, err
	}
	return c, prefixed(base, n), nil
}

// providerURL is EnvProviderURL, where plain names resolve.
func (ic *InitialContext) providerURL() (string, error) {
	url, _ := ic.env[EnvProviderURL].(string)
	if url == "" {
		return "", ErrNoInitialContext
	}
	return url, nil
}

// prefixed is rest under a URL's path. Concat always allocates, so an
// empty path leaves rest as it is.
func prefixed(path, rest Name) Name {
	if path.IsEmpty() {
		return rest
	}
	return path.Concat(rest)
}

// objectFromReference turns a stored Reference into an application object,
// routing plain context references (URL address, no named factory) through
// the resolution chain so they share the held roots (and the middleware's
// cached wire clients), and what lies at the URL's path is looked up as
// the URL itself would be, across any junction on the way. The result goes
// to the caller, who may Close it, so a bare root is handed out borrowed.
func (ic *InitialContext) objectFromReference(ctx context.Context, ref *Reference) (any, error) {
	if url, ok := ref.Get(AddrURL); ok && ref.Factory == "" {
		c, rest, err := ic.openURL(ctx, url)
		if err != nil {
			return nil, err
		}
		if rest.IsEmpty() {
			return borrow(c), nil
		}
		res, err := ic.run(ctx, c, rest, Op{Kind: OpLookup, Name: url})
		return res.Value, err
	}
	return GetObjectInstance(ctx, ref, Name{}, ic.env)
}

// continueCtx turns a CannotProceedError into the next hop: the context to
// dispatch to and the name to resolve there. A junction's URL (a context
// reference, or a string such as a DNS TXT record) continues at its held
// root, its path prefixed onto the remaining name.
func (ic *InitialContext) continueCtx(ctx context.Context, cpe *CannotProceedError) (Context, Name, error) {
	var url string
	switch r := cpe.Resolved.(type) {
	case Context:
		return r, cpe.RemainingName, nil
	case string:
		url = r
	case *Reference:
		addr, ok := r.Get(AddrURL)
		if !ok || r.Factory != "" {
			c, err := ic.referencedContext(ctx, cpe, r)
			return c, cpe.RemainingName, err
		}
		url = addr
	default:
		return nil, Name{}, fmt.Errorf("naming: cannot continue past %q: unsupported boundary object %T", cpe.AltName, cpe.Resolved)
	}
	c, path, err := ic.openURL(ctx, url)
	if err != nil {
		return nil, Name{}, err
	}
	return c, prefixed(path, cpe.RemainingName), nil
}

// referencedContext is the context a junction's Reference stands for when
// it is not a plain URL: what the object factories make of it, or the
// context its link names.
func (ic *InitialContext) referencedContext(ctx context.Context, cpe *CannotProceedError, ref *Reference) (Context, error) {
	obj, err := GetObjectInstance(ctx, ref, Name{}, ic.env)
	if err != nil {
		return nil, err
	}
	if link, ok := obj.(LinkRef); ok {
		if obj, err = ic.Lookup(ctx, link.Target); err != nil {
			return nil, err
		}
	}
	if c, ok := obj.(Context); ok {
		return c, nil
	}
	return nil, Errf("resolve", cpe.AltName, ErrNotContext)
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
		next, nextRest, cerr := ic.continueCtx(ctx, cpe)
		if cerr != nil {
			return Result{}, cerr
		}
		c, rest = next, nextRest
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
		out, err := ic.objectFromReference(ctx, ref)
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
// resolved to, by the rule resolve applies: both must be plain names, or
// URL names with one scheme and authority. A plain new name is prefixed by
// EnvProviderURL's path, a URL's is its path.
func (ic *InitialContext) renameTarget(oldName, newName string) (Name, error) {
	if IsURLName(oldName) != IsURLName(newName) {
		return Name{}, fmt.Errorf("old and new names in different naming systems")
	}
	if !IsURLName(newName) {
		n, err := ParseName(newName)
		if err != nil {
			return Name{}, err
		}
		url, err := ic.providerURL()
		if err != nil {
			return Name{}, err
		}
		u, err := ParseURLName(url)
		if err != nil {
			return Name{}, err
		}
		return prefixed(u.Path, n), nil
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
		newRest, err := ic.renameTarget(op.Name, op.NewName)
		if err != nil {
			return Result{}, Errf(label, op.NewName, err)
		}
		op.NewName = newRest.String()
	}
	res, err = ic.run(ctx, c, rest, op)
	if ref, ok := res.Value.(*Reference); ok && err == nil && op.Kind == OpLookupLink {
		res.Value, err = ic.objectFromReference(ctx, ref)
	}
	return res, err
}

// Close shuts down any installed resolution middleware (cached
// connections, watches) and closes every held provider root once.
// Contexts handed out earlier that lean on a root (looked-up subcontexts,
// borrowed roots) fail afterwards.
func (ic *InitialContext) Close() error {
	var err error
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

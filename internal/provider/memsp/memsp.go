// Package memsp is the in-memory service provider: a complete,
// thread-safe, hierarchical DirContext + EventContext implementation. It
// serves as the reference semantics for the naming API (atomic Bind,
// subcontexts, attribute modification, filter search, events, federation
// continuations) and as the default initial context in examples and tests.
//
// URL form: mem://<space>/<path>. Named spaces are process-global and
// created on first use.
package memsp

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"gondi/internal/core"
	"gondi/internal/filter"
	"gondi/internal/obs"
)

// entry is one node of the in-memory tree.
type entry struct {
	obj      any
	attrs    *core.Attributes
	children map[string]*entry // non-nil iff this entry is a context
}

func newCtxEntry() *entry {
	return &entry{children: map[string]*entry{}, attrs: &core.Attributes{}}
}

func (e *entry) isContext() bool { return e.children != nil }

// Tree is a shared in-memory namespace. Multiple Context values may view
// one Tree at different roots.
type Tree struct {
	mu        sync.RWMutex
	root      *entry
	listeners map[int]*watch
	nextWatch int
}

type watch struct {
	target core.Name
	scope  core.SearchScope
	l      core.Listener
}

// NewTree creates an empty namespace.
func NewTree() *Tree {
	return &Tree{root: newCtxEntry(), listeners: map[int]*watch{}}
}

var spacesMu sync.Mutex
var spaces = map[string]*Tree{}

// Space returns the process-global named namespace, creating it if needed.
func Space(name string) *Tree {
	spacesMu.Lock()
	defer spacesMu.Unlock()
	t, ok := spaces[name]
	if !ok {
		t = NewTree()
		spaces[name] = t
	}
	return t
}

// DropWatches discards every registered listener, notifying each with an
// EventWatchLost first — simulating the event transport dying out from
// under its registrations (tests of watch-loss degradation use this).
func (t *Tree) DropWatches() {
	t.mu.Lock()
	ws := make([]*watch, 0, len(t.listeners))
	for _, w := range t.listeners {
		ws = append(ws, w)
	}
	t.listeners = map[int]*watch{}
	t.mu.Unlock()
	for _, w := range ws {
		w.l(core.NamingEvent{Type: core.EventWatchLost})
	}
}

// ResetSpaces drops all global namespaces (tests only).
func ResetSpaces() {
	spacesMu.Lock()
	defer spacesMu.Unlock()
	spaces = map[string]*Tree{}
}

// Register installs the "mem" provider and the "mem" initial context
// factory (rooted at the space named by core.EnvProviderURL, default
// "mem://default").
func Register() {
	core.RegisterProvider("mem", core.ProviderFunc(func(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
		if err := core.CtxErr(ctx); err != nil {
			return nil, core.Name{}, err
		}
		u, err := core.ParseURLName(rawURL)
		if err != nil {
			return nil, core.Name{}, err
		}
		space := u.Authority
		if space == "" {
			space = "default"
		}
		mc := NewContext(Space(space), env, "mem://"+space)
		return obs.Instrument(mc, "provider", "mem"), u.Path, nil
	}))
	core.RegisterInitialFactory("mem", func(ctx context.Context, env map[string]any) (core.Context, error) {
		url, _ := env[core.EnvProviderURL].(string)
		if url == "" {
			url = "mem://default"
		}
		root, rest, err := core.OpenURL(ctx, url, env)
		if err != nil {
			return nil, err
		}
		if !rest.IsEmpty() {
			obj, err := root.Lookup(ctx, rest.String())
			if err != nil {
				return nil, err
			}
			c, ok := obj.(core.Context)
			if !ok {
				return nil, core.Errf("initial", url, core.ErrNotContext)
			}
			return c, nil
		}
		return root, nil
	})
}

// Context is a view of a Tree rooted at some path.
type Context struct {
	tree *Tree
	base core.Name
	env  map[string]any
	url  string // URL of the tree root, for references
	mu   sync.Mutex
	done bool
}

var _ core.DirContext = (*Context)(nil)
var _ core.EventContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)

// NewContext creates a context over tree rooted at the tree root. url, if
// non-empty, lets the context produce federation references to itself.
func NewContext(tree *Tree, env map[string]any, url string) *Context {
	return &Context{tree: tree, env: env, url: url}
}

func (c *Context) closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// check guards every operation: a closed context or an already-done ctx
// fails fast before any tree access.
func (c *Context) check(ctx context.Context) error {
	if c.closed() {
		return core.ErrClosed
	}
	return core.CtxErr(ctx)
}

// resolveLocked walks the tree to the parent of the final component.
// It raises a federation continuation if it crosses a bound *Reference or
// foreign Context mid-name. Caller holds tree.mu (read or write).
func (c *Context) resolveParent(n core.Name) (*entry, string, error) {
	full := c.base.Concat(n)
	if full.IsEmpty() {
		return nil, "", core.ErrInvalidNameEmpty
	}
	cur := c.tree.root
	for i := 0; i < full.Size()-1; i++ {
		comp := full.Get(i)
		next, ok := cur.children[comp]
		if !ok {
			return nil, "", core.ErrNotFound
		}
		if !next.isContext() {
			// Federation boundary or an error.
			if isBoundary(next.obj) {
				return nil, "", &core.CannotProceedError{
					Resolved:      next.obj,
					RemainingName: full.Suffix(i + 1),
					AltName:       full.Prefix(i + 1).String(),
				}
			}
			return nil, "", core.ErrNotContext
		}
		cur = next
	}
	return cur, full.Last(), nil
}

func isBoundary(obj any) bool {
	switch obj.(type) {
	case *core.Reference, core.Context:
		return true
	default:
		return false
	}
}

// lookupEntry resolves the full name to an entry.
func (c *Context) lookupEntry(n core.Name) (*entry, error) {
	full := c.base.Concat(n)
	cur := c.tree.root
	for i := 0; i < full.Size(); i++ {
		comp := full.Get(i)
		next, ok := cur.children[comp]
		if !ok {
			return nil, core.ErrNotFound
		}
		if i < full.Size()-1 && !next.isContext() {
			if isBoundary(next.obj) {
				return nil, &core.CannotProceedError{
					Resolved:      next.obj,
					RemainingName: full.Suffix(i + 1),
					AltName:       full.Prefix(i + 1).String(),
				}
			}
			return nil, core.ErrNotContext
		}
		cur = next
	}
	return cur, nil
}

// Lookup implements core.Context.
func (c *Context) Lookup(ctx context.Context, name string) (any, error) {
	if err := c.check(ctx); err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	c.tree.mu.RLock()
	defer c.tree.mu.RUnlock()
	e, err := c.lookupEntry(n)
	if err != nil {
		return nil, core.Errf("lookup", name, err)
	}
	if e.isContext() {
		return &Context{tree: c.tree, base: c.base.Concat(n), env: c.env, url: c.url}, nil
	}
	return e.obj, nil
}

// LookupLink implements core.Context; in-memory links are LinkRef values
// stored as ordinary objects, so this is identical to Lookup without
// post-processing (the initial context does the following).
func (c *Context) LookupLink(ctx context.Context, name string) (any, error) {
	return c.Lookup(ctx, name)
}

// Bind implements core.Context with atomic test-and-set semantics.
func (c *Context) Bind(ctx context.Context, name string, obj any) error {
	return c.BindAttrs(ctx, name, obj, nil)
}

// BindAttrs implements core.DirContext.
func (c *Context) BindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	if err := c.check(ctx); err != nil {
		return core.Errf("bind", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return core.Errf("bind", name, err)
	}
	c.tree.mu.Lock()
	parent, last, err := c.resolveParent(n)
	if err != nil {
		c.tree.mu.Unlock()
		return core.Errf("bind", name, err)
	}
	if _, exists := parent.children[last]; exists {
		c.tree.mu.Unlock()
		return core.Errf("bind", name, core.ErrAlreadyBound)
	}
	parent.children[last] = &entry{obj: obj, attrs: attrs.Clone()}
	events := c.tree.eventsFor(c.base.Concat(n), core.EventObjectAdded, obj, nil)
	c.tree.mu.Unlock()
	deliver(events)
	return nil
}

// Rebind implements core.Context.
func (c *Context) Rebind(ctx context.Context, name string, obj any) error {
	return c.rebind(ctx, name, obj, nil, false)
}

// RebindAttrs implements core.DirContext; nil attrs preserves existing
// attributes.
func (c *Context) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	return c.rebind(ctx, name, obj, attrs, attrs != nil)
}

func (c *Context) rebind(ctx context.Context, name string, obj any, attrs *core.Attributes, replaceAttrs bool) error {
	if err := c.check(ctx); err != nil {
		return core.Errf("rebind", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return core.Errf("rebind", name, err)
	}
	c.tree.mu.Lock()
	parent, last, err := c.resolveParent(n)
	if err != nil {
		c.tree.mu.Unlock()
		return core.Errf("rebind", name, err)
	}
	old, existed := parent.children[last]
	if existed && old.isContext() {
		c.tree.mu.Unlock()
		return core.Errf("rebind", name, core.ErrNotContext)
	}
	ne := &entry{obj: obj}
	switch {
	case replaceAttrs:
		ne.attrs = attrs.Clone()
	case existed:
		ne.attrs = old.attrs
	default:
		ne.attrs = &core.Attributes{}
	}
	parent.children[last] = ne
	typ := core.EventObjectAdded
	var oldObj any
	if existed {
		typ = core.EventObjectChanged
		oldObj = old.obj
	}
	events := c.tree.eventsFor(c.base.Concat(n), typ, obj, oldObj)
	c.tree.mu.Unlock()
	deliver(events)
	return nil
}

// Unbind implements core.Context; unbinding an absent terminal name is a
// no-op per JNDI semantics.
func (c *Context) Unbind(ctx context.Context, name string) error {
	if err := c.check(ctx); err != nil {
		return core.Errf("unbind", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return core.Errf("unbind", name, err)
	}
	c.tree.mu.Lock()
	parent, last, err := c.resolveParent(n)
	if err != nil {
		c.tree.mu.Unlock()
		return core.Errf("unbind", name, err)
	}
	old, existed := parent.children[last]
	var events []func()
	if existed {
		delete(parent.children, last)
		events = c.tree.eventsFor(c.base.Concat(n), core.EventObjectRemoved, nil, old.obj)
	}
	c.tree.mu.Unlock()
	deliver(events)
	return nil
}

// Rename implements core.Context.
func (c *Context) Rename(ctx context.Context, oldName, newName string) error {
	if err := c.check(ctx); err != nil {
		return core.Errf("rename", oldName, err)
	}
	on, err := core.ParseLocalName(oldName)
	if err != nil {
		return core.Errf("rename", oldName, err)
	}
	nn, err := core.ParseLocalName(newName)
	if err != nil {
		return core.Errf("rename", newName, err)
	}
	c.tree.mu.Lock()
	oldParent, oldLast, err := c.resolveParent(on)
	if err != nil {
		c.tree.mu.Unlock()
		return core.Errf("rename", oldName, err)
	}
	newParent, newLast, err := c.resolveParent(nn)
	if err != nil {
		c.tree.mu.Unlock()
		return core.Errf("rename", newName, err)
	}
	e, ok := oldParent.children[oldLast]
	if !ok {
		c.tree.mu.Unlock()
		return core.Errf("rename", oldName, core.ErrNotFound)
	}
	if _, exists := newParent.children[newLast]; exists {
		c.tree.mu.Unlock()
		return core.Errf("rename", newName, core.ErrAlreadyBound)
	}
	delete(oldParent.children, oldLast)
	newParent.children[newLast] = e
	events := c.tree.eventsFor(c.base.Concat(on), core.EventObjectRenamed, e.obj, e.obj)
	events = append(events, c.tree.eventsFor(c.base.Concat(nn), core.EventObjectRenamed, e.obj, e.obj)...)
	c.tree.mu.Unlock()
	deliver(events)
	return nil
}

// List implements core.Context.
func (c *Context) List(ctx context.Context, name string) ([]core.NameClassPair, error) {
	bindings, err := c.list(ctx, name, false)
	if err != nil {
		return nil, err
	}
	out := make([]core.NameClassPair, len(bindings))
	for i, b := range bindings {
		out[i] = core.NameClassPair{Name: b.Name, Class: b.Class}
	}
	return out, nil
}

// ListBindings implements core.Context.
func (c *Context) ListBindings(ctx context.Context, name string) ([]core.Binding, error) {
	return c.list(ctx, name, true)
}

func (c *Context) list(ctx context.Context, name string, withObj bool) ([]core.Binding, error) {
	if err := c.check(ctx); err != nil {
		return nil, core.Errf("list", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	c.tree.mu.RLock()
	defer c.tree.mu.RUnlock()
	e, err := c.lookupEntry(n)
	if err != nil {
		return nil, core.Errf("list", name, err)
	}
	if !e.isContext() {
		return nil, core.Errf("list", name, core.ErrNotContext)
	}
	out := make([]core.Binding, 0, len(e.children))
	for childName, child := range e.children {
		b := core.Binding{Name: childName}
		if child.isContext() {
			b.Class = core.ContextReferenceClass
			if withObj {
				b.Object = &Context{tree: c.tree, base: c.base.Concat(n).Append(childName), env: c.env, url: c.url}
			}
		} else {
			b.Class = core.ClassOf(child.obj)
			if withObj {
				b.Object = child.obj
			}
		}
		out = append(out, b)
	}
	sortBindings(out)
	return out, nil
}

// CreateSubcontext implements core.Context.
func (c *Context) CreateSubcontext(ctx context.Context, name string) (core.Context, error) {
	dc, err := c.CreateSubcontextAttrs(ctx, name, nil)
	if err != nil {
		return nil, err
	}
	return dc, nil
}

// CreateSubcontextAttrs implements core.DirContext.
func (c *Context) CreateSubcontextAttrs(ctx context.Context, name string, attrs *core.Attributes) (core.DirContext, error) {
	if err := c.check(ctx); err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return nil, core.Errf("createSubcontext", name, err)
	}
	c.tree.mu.Lock()
	parent, last, err := c.resolveParent(n)
	if err != nil {
		c.tree.mu.Unlock()
		return nil, core.Errf("createSubcontext", name, err)
	}
	if _, exists := parent.children[last]; exists {
		c.tree.mu.Unlock()
		return nil, core.Errf("createSubcontext", name, core.ErrAlreadyBound)
	}
	e := newCtxEntry()
	e.attrs = attrs.Clone()
	parent.children[last] = e
	events := c.tree.eventsFor(c.base.Concat(n), core.EventObjectAdded, nil, nil)
	c.tree.mu.Unlock()
	deliver(events)
	return &Context{tree: c.tree, base: c.base.Concat(n), env: c.env, url: c.url}, nil
}

// DestroySubcontext implements core.Context.
func (c *Context) DestroySubcontext(ctx context.Context, name string) error {
	if err := c.check(ctx); err != nil {
		return core.Errf("destroySubcontext", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return core.Errf("destroySubcontext", name, err)
	}
	c.tree.mu.Lock()
	parent, last, err := c.resolveParent(n)
	if err != nil {
		c.tree.mu.Unlock()
		return core.Errf("destroySubcontext", name, err)
	}
	e, ok := parent.children[last]
	if !ok {
		c.tree.mu.Unlock()
		return nil // JNDI: destroying a nonexistent subcontext succeeds
	}
	if !e.isContext() {
		c.tree.mu.Unlock()
		return core.Errf("destroySubcontext", name, core.ErrNotContext)
	}
	if len(e.children) > 0 {
		c.tree.mu.Unlock()
		return core.Errf("destroySubcontext", name, core.ErrContextNotEmpty)
	}
	delete(parent.children, last)
	events := c.tree.eventsFor(c.base.Concat(n), core.EventObjectRemoved, nil, nil)
	c.tree.mu.Unlock()
	deliver(events)
	return nil
}

// GetAttributes implements core.DirContext.
func (c *Context) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	if err := c.check(ctx); err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	c.tree.mu.RLock()
	defer c.tree.mu.RUnlock()
	e, err := c.lookupEntry(n)
	if err != nil {
		return nil, core.Errf("getAttributes", name, err)
	}
	return e.attrs.Select(attrIDs...), nil
}

// ModifyAttributes implements core.DirContext.
func (c *Context) ModifyAttributes(ctx context.Context, name string, mods []core.AttributeMod) error {
	if err := c.check(ctx); err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return core.Errf("modifyAttributes", name, err)
	}
	c.tree.mu.Lock()
	e, err := c.lookupEntry(n)
	if err != nil {
		c.tree.mu.Unlock()
		return core.Errf("modifyAttributes", name, err)
	}
	// Apply to a copy first so a bad batch leaves attributes untouched.
	copied := e.attrs.Clone()
	if err := copied.Apply(mods); err != nil {
		c.tree.mu.Unlock()
		return core.Errf("modifyAttributes", name, err)
	}
	e.attrs = copied
	events := c.tree.eventsFor(c.base.Concat(n), core.EventObjectChanged, e.obj, e.obj)
	c.tree.mu.Unlock()
	deliver(events)
	return nil
}

// Search implements core.DirContext. SearchControls.TimeLimit bounds the
// walk: when it fires, the results gathered so far are returned together
// with a *core.TimeLimitExceededError. Cancelling ctx aborts the walk the
// same way with ctx.Err().
func (c *Context) Search(ctx context.Context, name, filterStr string, controls *core.SearchControls) ([]core.SearchResult, error) {
	if err := c.check(ctx); err != nil {
		return nil, core.Errf("search", name, err)
	}
	n, err := core.ParseLocalName(name)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	f, err := filter.Parse(filterStr)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	if controls == nil {
		controls = &core.SearchControls{Scope: core.ScopeSubtree}
	}
	c.tree.mu.RLock()
	defer c.tree.mu.RUnlock()
	base, err := c.lookupEntry(n)
	if err != nil {
		return nil, core.Errf("search", name, err)
	}
	var deadline time.Time
	if controls.TimeLimit > 0 {
		deadline = time.Now().Add(controls.TimeLimit)
	}
	var out []core.SearchResult
	var limitHit bool
	var walkErr error
	var walk func(e *entry, rel core.Name, depth int)
	walk = func(e *entry, rel core.Name, depth int) {
		if limitHit || walkErr != nil {
			return
		}
		if err := core.CtxErr(ctx); err != nil {
			walkErr = err
			return
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			walkErr = &core.TimeLimitExceededError{Limit: controls.TimeLimit}
			return
		}
		inScope := false
		switch controls.Scope {
		case core.ScopeObject:
			inScope = depth == 0
		case core.ScopeOneLevel:
			inScope = depth == 1
		case core.ScopeSubtree:
			inScope = true
		}
		if inScope && e.attrs.MatchesFilter(f) {
			r := core.SearchResult{
				Name:       rel.String(),
				Attributes: e.attrs.Select(controls.ReturnAttrs...),
			}
			if e.isContext() {
				r.Class = core.ContextReferenceClass
			} else {
				r.Class = core.ClassOf(e.obj)
				if controls.ReturnObject {
					r.Object = e.obj
				}
			}
			out = append(out, r)
			if controls.CountLimit > 0 && len(out) >= controls.CountLimit {
				limitHit = true
				return
			}
		}
		if controls.Scope == core.ScopeObject && depth == 0 {
			return
		}
		if controls.Scope == core.ScopeOneLevel && depth >= 1 {
			return
		}
		if e.isContext() {
			for childName, child := range e.children {
				walk(child, rel.Append(childName), depth+1)
			}
		}
	}
	walk(base, core.Name{}, 0)
	sortResults(out)
	if walkErr != nil {
		return out, walkErr
	}
	if limitHit {
		return out, &core.LimitExceededError{Limit: controls.CountLimit}
	}
	return out, nil
}

// Watch implements core.EventContext.
func (c *Context) Watch(ctx context.Context, target string, scope core.SearchScope, l core.Listener) (func(), error) {
	if err := c.check(ctx); err != nil {
		return nil, core.Errf("watch", target, err)
	}
	n, err := core.ParseLocalName(target)
	if err != nil {
		return nil, core.Errf("watch", target, err)
	}
	// Watching a name bound to a foreign context continues there.
	c.tree.mu.RLock()
	if e, lerr := c.lookupEntry(n); lerr == nil && !e.isContext() && isBoundary(e.obj) {
		obj := e.obj
		c.tree.mu.RUnlock()
		return nil, &core.CannotProceedError{
			Resolved: obj, RemainingName: core.Name{}, AltName: c.base.Concat(n).String(),
		}
	} else if cpe, ok := lerr.(*core.CannotProceedError); ok {
		c.tree.mu.RUnlock()
		return nil, cpe
	}
	c.tree.mu.RUnlock()
	c.tree.mu.Lock()
	defer c.tree.mu.Unlock()
	id := c.tree.nextWatch
	c.tree.nextWatch++
	c.tree.listeners[id] = &watch{target: c.base.Concat(n), scope: scope, l: l}
	tree := c.tree
	return func() {
		tree.mu.Lock()
		delete(tree.listeners, id)
		tree.mu.Unlock()
	}, nil
}

// eventsFor computes the listener callbacks to fire for a change at the
// given absolute name. Caller holds tree.mu; callbacks run after unlock.
func (t *Tree) eventsFor(abs core.Name, typ core.EventType, newV, oldV any) []func() {
	var fire []func()
	for _, w := range t.listeners {
		match := false
		switch w.scope {
		case core.ScopeObject:
			match = abs.Equal(w.target)
		case core.ScopeOneLevel:
			match = abs.Size() == w.target.Size()+1 && abs.StartsWith(w.target)
		case core.ScopeSubtree:
			match = abs.StartsWith(w.target)
		}
		if match {
			l := w.l
			rel := abs.Suffix(w.target.Size())
			fire = append(fire, func() {
				l(core.NamingEvent{Type: typ, Name: rel.String(), NewValue: newV, OldValue: oldV})
			})
		}
	}
	return fire
}

func deliver(events []func()) {
	for _, f := range events {
		f()
	}
}

// NameInNamespace implements core.Context.
func (c *Context) NameInNamespace() (string, error) { return c.base.String(), nil }

// Environment implements core.Context.
func (c *Context) Environment() map[string]any { return c.env }

// Close implements core.Context.
func (c *Context) Close() error {
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
	return nil
}

// Reference implements core.Referenceable, enabling this context to be
// bound into other naming systems as a federation link.
func (c *Context) Reference() (*core.Reference, error) {
	if c.url == "" {
		return nil, core.ErrNotSupported
	}
	url := c.url
	if !c.base.IsEmpty() {
		url += "/" + c.base.String()
	}
	return core.NewContextReference(url), nil
}

func sortBindings(bs []core.Binding) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
}

func sortResults(rs []core.SearchResult) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if strings.Count(a.Name, "/") != strings.Count(b.Name, "/") {
			return strings.Count(a.Name, "/") < strings.Count(b.Name, "/")
		}
		return a.Name < b.Name
	})
}

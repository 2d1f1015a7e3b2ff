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
	"sync"

	"gondi/internal/core"
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
	listeners map[*watch]bool
}

type watch struct {
	target core.Name
	scope  core.SearchScope
	l      core.Listener
	lose   func()
}

// NewTree creates an empty namespace.
func NewTree() *Tree {
	return &Tree{root: newCtxEntry(), listeners: map[*watch]bool{}}
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
	ws := t.listeners
	t.listeners = map[*watch]bool{}
	t.mu.Unlock()
	for w := range ws {
		w.lose()
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
	core.EventOpContext // the typed surface, spelled over Do
	tree                *Tree
	base                core.Name
	env                 map[string]any
	url                 string // URL of the tree root, for references
	mu                  sync.Mutex
	done                bool
}

var _ core.DirContext = (*Context)(nil)
var _ core.EventContext = (*Context)(nil)
var _ core.Referenceable = (*Context)(nil)

// NewContext creates a context over tree rooted at the tree root. url, if
// non-empty, lets the context produce federation references to itself.
func NewContext(tree *Tree, env map[string]any, url string) *Context {
	c := &Context{tree: tree, env: env, url: url}
	c.Doer = c
	return c
}

// child is a view of the same tree rooted at base.
func (c *Context) child(base core.Name) *Context {
	ch := NewContext(c.tree, c.env, c.url)
	ch.base = base
	return ch
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

// resolveParent walks the tree to the parent of full's final component.
// Caller holds tree.mu (read or write).
func (c *Context) resolveParent(full core.Name) (*entry, string, error) {
	if full.IsEmpty() {
		return nil, "", core.ErrInvalidNameEmpty
	}
	parent, err := c.lookupEntry(full.Prefix(full.Size() - 1))
	if err == nil && !parent.isContext() {
		err = core.ErrNotContext
	}
	return parent, full.Last(), err
}

// lookupEntry walks the tree to the entry at full. Caller holds tree.mu.
func (c *Context) lookupEntry(full core.Name) (*entry, error) {
	cur := c.tree.root
	for i := 0; i < full.Size(); i++ {
		if !cur.isContext() {
			return nil, core.ErrNotContext
		}
		next, ok := cur.children[full.Get(i)]
		if !ok {
			return nil, core.ErrNotFound
		}
		cur = next
	}
	return cur, nil
}

// probe is the name-resolution rule's probe: a map lookup per component.
// Caller holds tree.mu.
func (c *Context) probe(_ context.Context, full core.Name) (core.Bound, any, error) {
	e := c.tree.root
	for i := 0; i < full.Size() && e != nil; i++ {
		e = e.children[full.Get(i)]
	}
	switch {
	case e == nil:
		return core.BoundNothing, nil, nil
	case e.isContext():
		return core.BoundContext, nil, nil
	}
	return core.BoundObject, e.obj, nil
}

// Do implements core.Doer. The operation runs on the tree under its lock
// (read-locked for the kinds that only read), and the events a write
// causes are delivered once the lock is released. A failure, and a
// Search or Watch before it starts, gets the name-resolution rule's
// answer under the same lock.
func (c *Context) Do(ctx context.Context, op core.Op) (res core.Result, err error) {
	var n core.Name
	if err = c.check(ctx); err == nil {
		n, err = core.ParseLocalName(op.Name)
	}
	if err != nil {
		return res, core.OpErr(op, err)
	}
	full := c.base.Concat(n)
	switch op.Kind {
	case core.OpLookup, core.OpLookupLink, core.OpList, core.OpListBindings, core.OpGetAttributes:
		c.tree.mu.RLock()
		if res, err = c.read(full, op); err != nil {
			err = core.Resolve(ctx, op.Kind, c.base, full, err, c.probe)
		}
		c.tree.mu.RUnlock()
	case core.OpSearch:
		var s *core.Search
		if s, err = core.NewSearch(ctx, op); err != nil {
			break
		}
		c.tree.mu.RLock()
		var base *entry
		if err = core.Resolve(ctx, op.Kind, c.base, full, nil, c.probe); err == nil {
			if base, err = c.lookupEntry(full); err == nil {
				search(s, base, core.Name{})
			}
		}
		c.tree.mu.RUnlock()
		if err == nil {
			res.Found, err = s.Done()
			return res, err // a stopped search's partial results, as they are
		}
	case core.OpWatch:
		c.tree.mu.RLock()
		err = core.Resolve(ctx, op.Kind, c.base, full, nil, c.probe)
		c.tree.mu.RUnlock()
		if err == nil {
			res.Cancel = c.watch(full, op)
		}
	default:
		var events []func()
		c.tree.mu.Lock()
		if events, err = c.write(full, op); err != nil {
			err = core.Resolve(ctx, op.Kind, c.base, full, err, c.probe)
		}
		c.tree.mu.Unlock()
		for _, fire := range events {
			fire()
		}
		if err == nil && op.Kind == core.OpCreateSubcontext {
			res.Context = c.child(full)
		}
	}
	return res, core.OpErr(op, err)
}

// read answers the kinds that only read. LookupLink is Lookup: in-memory
// links are LinkRef values stored as ordinary objects, which the initial
// context follows. Caller holds tree.mu for reading.
func (c *Context) read(full core.Name, op core.Op) (core.Result, error) {
	e, err := c.lookupEntry(full)
	if err != nil {
		return core.Result{}, err
	}
	switch op.Kind {
	case core.OpGetAttributes:
		return core.Result{Attrs: e.attrs.Select(op.AttrIDs...)}, nil
	case core.OpList, core.OpListBindings:
		if !e.isContext() {
			return core.Result{}, core.ErrNotContext
		}
		return core.ListResult(op.Kind, c.list(full, e, op.Kind == core.OpListBindings)), nil
	}
	if e.isContext() {
		return core.Result{Value: c.child(full)}, nil
	}
	return core.Result{Value: e.obj}, nil
}

// list is the bindings of the context entry e at full; withObj builds the
// bound objects too, which List does not need.
func (c *Context) list(full core.Name, e *entry, withObj bool) []core.Binding {
	out := make([]core.Binding, 0, len(e.children))
	for childName, child := range e.children {
		b := core.Binding{Name: childName}
		if child.isContext() {
			b.Class = core.ContextReferenceClass
			if withObj {
				b.Object = c.child(full.Append(childName))
			}
		} else {
			b.Class = core.ClassOf(child.obj)
			if withObj {
				b.Object = child.obj
			}
		}
		out = append(out, b)
	}
	return out
}

// write applies a kind that changes the tree — Bind with atomic
// test-and-set semantics, Rebind keeping the attributes unless new ones
// come, Unbind and DestroySubcontext of an absent name succeeding (JNDI)
// — and returns the events to deliver. Caller holds tree.mu.
func (c *Context) write(full core.Name, op core.Op) ([]func(), error) {
	if op.Kind == core.OpRename {
		return c.rename(full, op)
	}
	if op.Kind == core.OpModifyAttributes {
		e, err := c.lookupEntry(full)
		if err != nil {
			return nil, err
		}
		// Apply to a copy first so a bad batch leaves attributes untouched.
		copied := e.attrs.Clone()
		if err := copied.Apply(op.Mods); err != nil {
			return nil, err
		}
		e.attrs = copied
		return c.tree.eventsFor(core.EventObjectChanged, full, core.Name{}, e.obj, e.obj), nil
	}
	parent, last, err := c.resolveParent(full)
	if err != nil {
		return nil, err
	}
	old, existed := parent.children[last]
	switch op.Kind {
	case core.OpBind, core.OpCreateSubcontext:
		if existed {
			return nil, core.ErrAlreadyBound
		}
		e := &entry{obj: op.Obj, attrs: op.Attrs.Clone()}
		if op.Kind == core.OpCreateSubcontext {
			e.children = map[string]*entry{}
		}
		parent.children[last] = e
		return c.tree.eventsFor(core.EventObjectAdded, full, core.Name{}, op.Obj, nil), nil
	case core.OpRebind:
		if existed && old.isContext() {
			return nil, core.ErrNotContext
		}
		e := &entry{obj: op.Obj}
		parent.children[last] = e
		if !existed {
			e.attrs = op.Attrs.Clone()
			return c.tree.eventsFor(core.EventObjectAdded, full, core.Name{}, op.Obj, nil), nil
		}
		if e.attrs = old.attrs; op.Attrs != nil {
			e.attrs = op.Attrs.Clone()
		}
		return c.tree.eventsFor(core.EventObjectChanged, full, core.Name{}, op.Obj, old.obj), nil
	case core.OpUnbind:
		if !existed {
			return nil, nil
		}
		delete(parent.children, last)
		return c.tree.eventsFor(core.EventObjectRemoved, full, core.Name{}, nil, old.obj), nil
	case core.OpDestroySubcontext:
		switch {
		case !existed:
			return nil, nil
		case !old.isContext():
			return nil, core.ErrNotContext
		case len(old.children) > 0:
			return nil, core.ErrContextNotEmpty
		}
		delete(parent.children, last)
		return c.tree.eventsFor(core.EventObjectRemoved, full, core.Name{}, nil, nil), nil
	}
	return nil, core.ErrNotSupported
}

// rename moves the binding at oldFull to op.NewName. Caller holds tree.mu.
func (c *Context) rename(oldFull core.Name, op core.Op) ([]func(), error) {
	nn, err := core.ParseLocalName(op.NewName)
	if err != nil {
		return nil, core.OnNewName(err)
	}
	newFull := c.base.Concat(nn)
	oldParent, oldLast, err := c.resolveParent(oldFull)
	if err != nil {
		return nil, err
	}
	newParent, newLast, err := c.resolveParent(newFull)
	if err != nil {
		return nil, core.OnNewName(err)
	}
	e, ok := oldParent.children[oldLast]
	if !ok {
		return nil, core.ErrNotFound
	}
	if _, exists := newParent.children[newLast]; exists {
		return nil, core.OnNewName(core.ErrAlreadyBound)
	}
	delete(oldParent.children, oldLast)
	newParent.children[newLast] = e
	return c.tree.eventsFor(core.EventObjectRenamed, newFull, oldFull, e.obj, e.obj), nil
}

// search offers e at rel and, as far as the scope descends, the entries
// below it. Caller holds tree.mu for reading.
func search(s *core.Search, e *entry, rel core.Name) {
	if s.Stopped() {
		return
	}
	depth := rel.Size()
	if s.Match(depth, e.attrs) {
		s.Add(rel, e.attrs, e.obj, e.isContext())
	}
	if !s.Controls.Scope.Descends(depth) {
		return
	}
	for name, child := range e.children {
		search(s, child, rel.Append(name))
	}
}

// watch registers op.Listener on full.
func (c *Context) watch(full core.Name, op core.Op) func() {
	tree, w := c.tree, &watch{target: full, scope: op.Scope, l: op.Listener}
	cancel, lose := core.WatchLoss(nil, op.Listener, func() {}, func() {
		tree.mu.Lock()
		delete(tree.listeners, w)
		tree.mu.Unlock()
	})
	tree.mu.Lock()
	w.lose, tree.listeners[w] = lose, true
	tree.mu.Unlock()
	return cancel
}

// eventsFor computes the listener callbacks to fire for a change at the
// absolute name (a rename's from oldName), as core.EventFor decides
// them. Caller holds tree.mu; callbacks run after unlock.
func (t *Tree) eventsFor(typ core.EventType, name, oldName core.Name, newV, oldV any) []func() {
	var fire []func()
	for w := range t.listeners {
		if ev, ok := core.EventFor(w.target, w.scope, typ, name, oldName, newV, oldV); ok {
			l := w.l
			fire = append(fire, func() { l(ev) })
		}
	}
	return fire
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

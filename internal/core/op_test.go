package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// surface is every typed method op.go maps to and from an Op.
type surface interface {
	DirContext
	EventContext
	BatchContext
}

// recCtx is a context with the whole surface: every typed method records
// its own name and its arguments (as the Op they spell) and returns the
// canned result's field for its kind.
type recCtx struct {
	calls []string
	got   Op
	res   Result
	err   error
}

func (r *recCtx) rec(method string, op Op) { r.calls = append(r.calls, method); r.got = op }

func (r *recCtx) Lookup(_ context.Context, name string) (any, error) {
	r.rec("Lookup", Op{Kind: OpLookup, Name: name})
	return r.res.Value, r.err
}
func (r *recCtx) LookupLink(_ context.Context, name string) (any, error) {
	r.rec("LookupLink", Op{Kind: OpLookupLink, Name: name})
	return r.res.Value, r.err
}
func (r *recCtx) Bind(_ context.Context, name string, obj any) error {
	r.rec("Bind", Op{Kind: OpBind, Name: name, Obj: obj})
	return r.err
}
func (r *recCtx) Rebind(_ context.Context, name string, obj any) error {
	r.rec("Rebind", Op{Kind: OpRebind, Name: name, Obj: obj})
	return r.err
}
func (r *recCtx) Unbind(_ context.Context, name string) error {
	r.rec("Unbind", Op{Kind: OpUnbind, Name: name})
	return r.err
}
func (r *recCtx) Rename(_ context.Context, oldName, newName string) error {
	r.rec("Rename", Op{Kind: OpRename, Name: oldName, NewName: newName})
	return r.err
}
func (r *recCtx) List(_ context.Context, name string) ([]NameClassPair, error) {
	r.rec("List", Op{Kind: OpList, Name: name})
	return r.res.Pairs, r.err
}
func (r *recCtx) ListBindings(_ context.Context, name string) ([]Binding, error) {
	r.rec("ListBindings", Op{Kind: OpListBindings, Name: name})
	return r.res.Bindings, r.err
}
func (r *recCtx) CreateSubcontext(_ context.Context, name string) (Context, error) {
	r.rec("CreateSubcontext", Op{Kind: OpCreateSubcontext, Name: name})
	return r.res.Context, r.err
}
func (r *recCtx) DestroySubcontext(_ context.Context, name string) error {
	r.rec("DestroySubcontext", Op{Kind: OpDestroySubcontext, Name: name})
	return r.err
}
func (r *recCtx) BindAttrs(_ context.Context, name string, obj any, attrs *Attributes) error {
	r.rec("BindAttrs", Op{Kind: OpBind, Dir: true, Name: name, Obj: obj, Attrs: attrs})
	return r.err
}
func (r *recCtx) RebindAttrs(_ context.Context, name string, obj any, attrs *Attributes) error {
	r.rec("RebindAttrs", Op{Kind: OpRebind, Dir: true, Name: name, Obj: obj, Attrs: attrs})
	return r.err
}
func (r *recCtx) GetAttributes(_ context.Context, name string, attrIDs ...string) (*Attributes, error) {
	r.rec("GetAttributes", Op{Kind: OpGetAttributes, Name: name, AttrIDs: attrIDs})
	return r.res.Attrs, r.err
}
func (r *recCtx) ModifyAttributes(_ context.Context, name string, mods []AttributeMod) error {
	r.rec("ModifyAttributes", Op{Kind: OpModifyAttributes, Name: name, Mods: mods})
	return r.err
}
func (r *recCtx) Search(_ context.Context, name, filterStr string, controls *SearchControls) ([]SearchResult, error) {
	r.rec("Search", Op{Kind: OpSearch, Name: name, Filter: filterStr, Controls: controls})
	return r.res.Found, r.err
}
func (r *recCtx) CreateSubcontextAttrs(_ context.Context, name string, attrs *Attributes) (DirContext, error) {
	r.rec("CreateSubcontextAttrs", Op{Kind: OpCreateSubcontext, Dir: true, Name: name, Attrs: attrs})
	d, _ := r.res.Context.(DirContext)
	return d, r.err
}
func (r *recCtx) Watch(_ context.Context, target string, scope SearchScope, l Listener) (func(), error) {
	r.rec("Watch", Op{Kind: OpWatch, Name: target, Scope: scope, Listener: l})
	return r.res.Cancel, r.err
}
func (r *recCtx) LookupMany(_ context.Context, names []string) ([]BatchResult, error) {
	r.rec("LookupMany", Op{Kind: OpLookupMany, Names: names})
	return r.res.Batch, r.err
}
func (r *recCtx) BindMany(_ context.Context, reqs []BindRequest) ([]BatchResult, error) {
	r.rec("BindMany", Op{Kind: OpBindMany, Binds: reqs})
	return r.res.Batch, r.err
}
func (r *recCtx) GetAttributesMany(_ context.Context, names []string, attrIDs ...string) ([]BatchResult, error) {
	r.rec("GetAttributesMany", Op{Kind: OpGetAttributesMany, Names: names, AttrIDs: attrIDs})
	return r.res.Batch, r.err
}
func (r *recCtx) NameInNamespace() (string, error) { return "", nil }
func (r *recCtx) Environment() map[string]any      { return nil }
func (r *recCtx) Close() error                     { return nil }

var _ surface = (*recCtx)(nil)

// recDoer records the Op an adapter hands it and answers with res.
type recDoer struct {
	got Op
	res Result
	err error
}

func (d *recDoer) Do(_ context.Context, op Op) (Result, error) {
	d.got = op
	return d.res, d.err
}

// adapter is BatchOpContext plus the three methods a decorator writes,
// i.e. the whole surface over one Doer.
type adapter struct {
	BatchOpContext
}

func (adapter) NameInNamespace() (string, error) { return "", nil }
func (adapter) Environment() map[string]any      { return nil }
func (adapter) Close() error                     { return nil }

var _ surface = (*adapter)(nil)

// sameOp and sameResult are DeepEqual, except that the one func field of
// each (funcs do not compare) only has to be set on both sides or neither.
func sameOp(a, b Op) bool {
	if (a.Listener == nil) != (b.Listener == nil) {
		return false
	}
	a.Listener, b.Listener = nil, nil
	return reflect.DeepEqual(a, b)
}

func sameResult(a, b Result) bool {
	if (a.Cancel == nil) != (b.Cancel == nil) {
		return false
	}
	a.Cancel, b.Cancel = nil, nil
	return reflect.DeepEqual(a, b)
}

// surfaceCase is one typed method: the Op it spells, the Result field it
// carries, and the call itself with the return packed back into a Result.
type surfaceCase struct {
	method string
	op     Op
	res    Result
	call   func(context.Context, surface) (Result, error)
}

func surfaceCases() []surfaceCase {
	attrs := NewAttributes()
	attrs.Put("k", "v")
	mods := []AttributeMod{{Op: ModReplace, Attr: Attribute{ID: "k", Values: []string{"w"}}}}
	controls := &SearchControls{Scope: ScopeSubtree, CountLimit: 3}
	listener := Listener(func(NamingEvent) {})
	names := []string{"a", "b"}
	binds := []BindRequest{{Name: "a", Obj: 1}, {Name: "b", Obj: 2, Attrs: attrs}}
	batch := []BatchResult{{Value: "x"}, {Err: ErrNotFound}}
	sub := &recCtx{}
	return []surfaceCase{
		{"Lookup", Op{Kind: OpLookup, Name: "n"}, Result{Value: "obj"},
			func(ctx context.Context, s surface) (r Result, err error) { r.Value, err = s.Lookup(ctx, "n"); return }},
		{"LookupLink", Op{Kind: OpLookupLink, Name: "n"}, Result{Value: LinkRef{Target: "t"}},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Value, err = s.LookupLink(ctx, "n")
				return
			}},
		{"Bind", Op{Kind: OpBind, Name: "n", Obj: 7}, Result{},
			func(ctx context.Context, s surface) (Result, error) { return Result{}, s.Bind(ctx, "n", 7) }},
		{"Rebind", Op{Kind: OpRebind, Name: "n", Obj: 7}, Result{},
			func(ctx context.Context, s surface) (Result, error) { return Result{}, s.Rebind(ctx, "n", 7) }},
		{"Unbind", Op{Kind: OpUnbind, Name: "n"}, Result{},
			func(ctx context.Context, s surface) (Result, error) { return Result{}, s.Unbind(ctx, "n") }},
		{"Rename", Op{Kind: OpRename, Name: "n", NewName: "m"}, Result{},
			func(ctx context.Context, s surface) (Result, error) { return Result{}, s.Rename(ctx, "n", "m") }},
		{"List", Op{Kind: OpList, Name: "n"}, Result{Pairs: []NameClassPair{{Name: "c", Class: "string"}}},
			func(ctx context.Context, s surface) (r Result, err error) { r.Pairs, err = s.List(ctx, "n"); return }},
		{"ListBindings", Op{Kind: OpListBindings, Name: "n"}, Result{Bindings: []Binding{{Name: "c", Object: 1}}},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Bindings, err = s.ListBindings(ctx, "n")
				return
			}},
		{"CreateSubcontext", Op{Kind: OpCreateSubcontext, Name: "n"}, Result{Context: sub},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Context, err = s.CreateSubcontext(ctx, "n")
				return
			}},
		{"DestroySubcontext", Op{Kind: OpDestroySubcontext, Name: "n"}, Result{},
			func(ctx context.Context, s surface) (Result, error) { return Result{}, s.DestroySubcontext(ctx, "n") }},
		{"BindAttrs", Op{Kind: OpBind, Dir: true, Name: "n", Obj: 7, Attrs: attrs}, Result{},
			func(ctx context.Context, s surface) (Result, error) { return Result{}, s.BindAttrs(ctx, "n", 7, attrs) }},
		{"RebindAttrs", Op{Kind: OpRebind, Dir: true, Name: "n", Obj: 7, Attrs: attrs}, Result{},
			func(ctx context.Context, s surface) (Result, error) {
				return Result{}, s.RebindAttrs(ctx, "n", 7, attrs)
			}},
		{"CreateSubcontextAttrs", Op{Kind: OpCreateSubcontext, Dir: true, Name: "n", Attrs: attrs}, Result{Context: sub},
			func(ctx context.Context, s surface) (r Result, err error) {
				d, err := s.CreateSubcontextAttrs(ctx, "n", attrs)
				if d != nil {
					r.Context = d
				}
				return r, err
			}},
		{"GetAttributes", Op{Kind: OpGetAttributes, Name: "n", AttrIDs: []string{"k", "l"}}, Result{Attrs: attrs},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Attrs, err = s.GetAttributes(ctx, "n", "k", "l")
				return
			}},
		{"ModifyAttributes", Op{Kind: OpModifyAttributes, Name: "n", Mods: mods}, Result{},
			func(ctx context.Context, s surface) (Result, error) {
				return Result{}, s.ModifyAttributes(ctx, "n", mods)
			}},
		{"Search", Op{Kind: OpSearch, Name: "n", Filter: "(k=v)", Controls: controls}, Result{Found: []SearchResult{{Name: "hit"}}},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Found, err = s.Search(ctx, "n", "(k=v)", controls)
				return
			}},
		{"Watch", Op{Kind: OpWatch, Name: "n", Scope: ScopeOneLevel, Listener: listener}, Result{Cancel: func() {}},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Cancel, err = s.Watch(ctx, "n", ScopeOneLevel, listener)
				return
			}},
		{"LookupMany", Op{Kind: OpLookupMany, Names: names}, Result{Batch: batch},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Batch, err = s.LookupMany(ctx, names)
				return
			}},
		{"BindMany", Op{Kind: OpBindMany, Binds: binds}, Result{Batch: batch},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Batch, err = s.BindMany(ctx, binds)
				return
			}},
		{"GetAttributesMany", Op{Kind: OpGetAttributesMany, Names: names, AttrIDs: []string{"k"}}, Result{Batch: batch},
			func(ctx context.Context, s surface) (r Result, err error) {
				r.Batch, err = s.GetAttributesMany(ctx, names, "k")
				return
			}},
	}
}

// TestOpSurfaceRoundTrip holds both directions of the mapping to every
// OpKind × Dir: a typed method on the adapter spells exactly its Op and
// hands back the Doer's result; Do of that Op calls exactly that typed
// method, once, with the same arguments, and carries its result back. A
// kind × Dir pair no typed method spells is refused, except that Dir on a
// kind that is a directory operation anyway changes nothing.
func TestOpSurfaceRoundTrip(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	type key struct {
		kind OpKind
		dir  bool
	}
	covered := map[key]bool{}
	for _, tc := range surfaceCases() {
		covered[key{tc.op.Kind, tc.op.Dir}] = true
		for _, fail := range []error{nil, boom} {
			d := &recDoer{res: tc.res, err: fail}
			a := &adapter{}
			a.Doer = d
			got, err := tc.call(ctx, a)
			if !sameOp(d.got, tc.op) {
				t.Errorf("%s: adapter spelled %+v, want %+v", tc.method, d.got, tc.op)
			}
			if err != fail {
				t.Errorf("%s: adapter err = %v, want %v", tc.method, err, fail)
			}
			// CreateSubcontextAttrs drops the context on error; the rest
			// hand back whatever the Doer answered.
			if want := tc.res; !sameResult(got, want) && !(fail != nil && tc.method == "CreateSubcontextAttrs") {
				t.Errorf("%s: adapter result = %+v, want %+v", tc.method, got, want)
			}

			c := &recCtx{res: tc.res, err: fail}
			res, err := Do(ctx, c, tc.op)
			if !reflect.DeepEqual(c.calls, []string{tc.method}) {
				t.Errorf("%s: Do called %v", tc.method, c.calls)
			}
			if !sameOp(c.got, tc.op) {
				t.Errorf("%s: Do passed %+v, want %+v", tc.method, c.got, tc.op)
			}
			if err != fail {
				t.Errorf("%s: Do err = %v, want %v", tc.method, err, fail)
			}
			if want := tc.res; !sameResult(res, want) && !(fail != nil && tc.method == "CreateSubcontextAttrs") {
				t.Errorf("%s: Do result = %+v, want %+v", tc.method, res, want)
			}
		}
	}
	for k := OpKind(0); k < NumOpKinds; k++ {
		if !covered[key{k, false}] {
			t.Errorf("no typed method covers kind %v", k)
		}
		if covered[key{k, true}] {
			continue
		}
		c := &recCtx{}
		_, err := Do(ctx, c, Op{Kind: k, Dir: true, Name: "n"})
		switch k {
		case OpGetAttributes, OpModifyAttributes, OpSearch:
			// Directory operations anyway: Dir says nothing new.
			if err != nil || len(c.calls) != 1 {
				t.Errorf("%v with Dir: err = %v, calls = %v; want the one directory method", k, err, c.calls)
			}
		default:
			if !errors.Is(err, ErrNotSupported) || len(c.calls) != 0 {
				t.Errorf("%v with Dir: err = %v, calls = %v; want ErrNotSupported and no call", k, err, c.calls)
			}
		}
	}
	if got := NumOpKinds.String(); got != "?" {
		t.Errorf("out-of-range kind prints %q", got)
	}
}

// plainOnly, dirOnly and eventOnly narrow a recCtx to one capability.
type plainOnly struct{ Context }
type dirOnly struct{ DirContext }
type eventOnly struct{ EventContext }

// TestOpCapabilityMatrix: Supports and Do agree, per context capability,
// on which ops run; a refusal is ErrNotSupported naming the op and the
// name, and reaches no typed method. Batches fall back to the unary
// methods on a context without BatchContext.
func TestOpCapabilityMatrix(t *testing.T) {
	ctx := context.Background()
	dirOps := map[string]bool{"BindAttrs": true, "RebindAttrs": true, "CreateSubcontextAttrs": true,
		"GetAttributes": true, "ModifyAttributes": true, "Search": true, "GetAttributesMany": true}
	for _, tc := range surfaceCases() {
		for _, cap := range []struct {
			name string
			wrap func(*recCtx) Context
			ok   bool
		}{
			{"plain", func(r *recCtx) Context { return plainOnly{r} }, !dirOps[tc.method] && tc.method != "Watch"},
			{"dir", func(r *recCtx) Context { return dirOnly{r} }, tc.method != "Watch"},
			{"event", func(r *recCtx) Context { return eventOnly{r} }, !dirOps[tc.method]},
		} {
			r := &recCtx{res: tc.res}
			c := cap.wrap(r)
			if got := Supports(c, tc.op); got != cap.ok {
				t.Errorf("Supports(%s, %s) = %v, want %v", cap.name, tc.method, got, cap.ok)
			}
			_, err := Do(ctx, c, tc.op)
			if cap.ok {
				if err != nil {
					t.Errorf("Do(%s, %s): %v", cap.name, tc.method, err)
				}
				continue
			}
			var ne *NamingError
			if !errors.Is(err, ErrNotSupported) || !errors.As(err, &ne) || ne.Op != tc.op.Kind.String() || ne.Name != tc.op.Name {
				t.Errorf("Do(%s, %s) = %v, want ErrNotSupported for op %q name %q", cap.name, tc.method, err, tc.op.Kind, tc.op.Name)
			}
			if len(r.calls) != 0 {
				t.Errorf("Do(%s, %s) reached %v", cap.name, tc.method, r.calls)
			}
		}
	}

	// Without BatchContext a batch is its unary op per item, in order; an
	// item needing a capability the context lacks fails alone.
	r := &recCtx{res: Result{Value: "v"}}
	out, err := LookupMany(ctx, plainOnly{r}, []string{"a", "b"})
	if err != nil || len(out) != 2 || out[0].Value != "v" || out[1].Value != "v" ||
		!reflect.DeepEqual(r.calls, []string{"Lookup", "Lookup"}) {
		t.Errorf("per-item LookupMany = %+v, %v via %v", out, err, r.calls)
	}
	r = &recCtx{}
	out, err = BindMany(ctx, plainOnly{r}, []BindRequest{{Name: "a", Obj: 1}, {Name: "b", Obj: 2, Attrs: NewAttributes()}})
	if err != nil || len(out) != 2 || out[0].Err != nil || !errors.Is(out[1].Err, ErrNotSupported) ||
		!reflect.DeepEqual(r.calls, []string{"Bind"}) {
		t.Errorf("per-item BindMany = %+v, %v via %v", out, err, r.calls)
	}
	attrs := NewAttributes()
	r = &recCtx{res: Result{Attrs: attrs}}
	out, err = GetAttributesMany(ctx, dirOnly{r}, []string{"a"}, "k")
	if err != nil || len(out) != 1 || out[0].Value != attrs || !sameOp(r.got, Op{Kind: OpGetAttributes, Name: "a", AttrIDs: []string{"k"}}) {
		t.Errorf("per-item GetAttributesMany = %+v, %v via %+v", out, err, r.got)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := LookupMany(cctx, plainOnly{&recCtx{}}, []string{"a"}); !errors.Is(err, context.Canceled) {
		t.Errorf("per-item batch under a cancelled ctx: %v", err)
	}
}

// allocCtx is the cheapest possible inner context for the alloc gate.
type allocCtx struct{ Context }

func (allocCtx) Lookup(context.Context, string) (any, error) { return nil, nil }

// passDoer is the minimal decorator: Do forwards to core.Do.
type passDoer struct {
	OpContext
	inner Context
}

func (p *passDoer) Do(ctx context.Context, op Op) (Result, error) { return Do(ctx, p.inner, op) }

// TestOpContextLookupZeroAlloc gates the cost of operations as values:
// OpContext.Lookup -> decorator.Do -> core.Do -> inner.Lookup builds an
// Op and a Result on the stack and nothing on the heap. scripts/check.sh
// allocs runs it.
func TestOpContextLookupZeroAlloc(t *testing.T) {
	p := &passDoer{inner: allocCtx{}}
	p.Doer = p
	// Through an interface, as callers hold it, so nothing is devirtualized.
	var c interface {
		Lookup(context.Context, string) (any, error)
	} = p
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := c.Lookup(ctx, "a/b"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("OpContext.Lookup through Do allocates %v times per op, want 0", n)
	}
}

package core

import (
	"context"
	"errors"
	"testing"
)

// walkStub answers a probe by the depth of the name: levels[d-1] is what
// is bound at depth d, a context past the end. It records the depths it
// was asked about, in order.
type walkStub struct {
	levels []stubLevel
	asked  []int
}

type stubLevel struct {
	bound Bound
	obj   any
	err   error
}

func (s *walkStub) probe(_ context.Context, n Name) (Bound, any, error) {
	s.asked = append(s.asked, n.Size())
	if n.Size() > len(s.levels) {
		return BoundContext, nil, nil
	}
	l := s.levels[n.Size()-1]
	return l.bound, l.obj, l.err
}

var (
	ctxLevel  = stubLevel{bound: BoundContext}
	junction  = stubLevel{bound: BoundObject, obj: NewContextReference("mem://far")}
	leafLevel = stubLevel{bound: BoundObject, obj: "leaf"}
	noLevel   = stubLevel{bound: BoundNothing}
)

func TestResolveRule(t *testing.T) {
	ctx := context.Background()
	full := MustParseName("a/b/c")
	for _, tc := range []struct {
		name   string
		kind   OpKind
		levels []stubLevel
		answer error
		want   error // nil, a sentinel, or errContinues
		rem    string
	}{
		{"junction on the way continues", OpLookup, []stubLevel{ctxLevel, junction}, ErrNotFound, errContinues, "c"},
		{"binding on the way is not a context", OpLookup, []stubLevel{leafLevel}, ErrNotFound, ErrNotContext, ""},
		{"missing intermediate is not found", OpBind, []stubLevel{ctxLevel, noLevel}, ErrNotFound, ErrNotFound, ""},
		{"missing intermediate fails unbind", OpUnbind, []stubLevel{noLevel}, ErrNotFound, ErrNotFound, ""},
		{"missing terminal unbinds", OpUnbind, nil, ErrNotFound, nil, ""},
		{"missing terminal destroys", OpDestroySubcontext, nil, ErrNotFound, nil, ""},
		{"every name a context keeps the answer", OpLookup, nil, ErrNotFound, ErrNotFound, ""},
		{"the answer stands before the operation", OpBind, nil, nil, nil, ""},
		{"other answers are not walked", OpLookup, []stubLevel{leafLevel}, ErrAlreadyBound, ErrAlreadyBound, ""},
		{"terminal is not probed for lookup", OpLookup, []stubLevel{ctxLevel, ctxLevel, junction}, ErrNotFound, ErrNotFound, ""},
		{"list continues at a junction", OpList, []stubLevel{ctxLevel, ctxLevel, junction}, nil, errContinues, ""},
		{"list of a binding is not a context", OpListBindings, []stubLevel{ctxLevel, ctxLevel, leafLevel}, nil, ErrNotContext, ""},
		{"list of nothing is not found", OpList, []stubLevel{ctxLevel, ctxLevel, noLevel}, nil, ErrNotFound, ""},
		{"search continues at a junction", OpSearch, []stubLevel{ctxLevel, ctxLevel, junction}, nil, errContinues, ""},
		{"search base may be a binding", OpSearch, []stubLevel{ctxLevel, ctxLevel, leafLevel}, nil, nil, ""},
		{"search base must exist", OpSearch, []stubLevel{ctxLevel, ctxLevel, noLevel}, nil, ErrNotFound, ""},
		{"watch continues at a junction", OpWatch, []stubLevel{ctxLevel, ctxLevel, junction}, nil, errContinues, ""},
		{"watch target may be missing", OpWatch, []stubLevel{ctxLevel, ctxLevel, noLevel}, nil, nil, ""},
		{"watch target may be a binding", OpWatch, []stubLevel{ctxLevel, ctxLevel, leafLevel}, nil, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &walkStub{levels: tc.levels}
			err := Resolve(ctx, tc.kind, Name{}, full, tc.answer, s.probe)
			var cpe *CannotProceedError
			switch {
			case tc.want == errContinues:
				if !errors.As(err, &cpe) || cpe.RemainingName.String() != tc.rem || cpe.Resolved != junction.obj {
					t.Fatalf("%v, want a continuation with %q remaining", err, tc.rem)
				}
				if want := full.Prefix(full.Size() - cpe.RemainingName.Size()).String(); cpe.AltName != want {
					t.Fatalf("AltName %q, want %q", cpe.AltName, want)
				}
			case err != tc.want:
				t.Fatalf("%v, want %v", err, tc.want)
			}
		})
	}
}

var errContinues = errors.New("continues")

// A failed probe is the answer, typed: a transport failure met on the
// way is never read as a missing or plain name.
func TestResolveProbeFailureIsTheAnswer(t *testing.T) {
	down := &CommunicationError{Endpoint: "n1", Err: errors.New("connection reset")}
	for _, kind := range []OpKind{OpLookup, OpUnbind, OpList, OpSearch} {
		s := &walkStub{levels: []stubLevel{ctxLevel, {err: down}, junction}}
		err := Resolve(context.Background(), kind, Name{}, MustParseName("a/b/c/d"), ErrNotFound, s.probe)
		var ce *CommunicationError
		if !errors.As(err, &ce) || ce != down {
			t.Errorf("%v: %v, want the probe's *CommunicationError", kind, err)
		}
	}
}

// The walk goes shallowest first, starts below the context's base and
// stops at the first name that is not a context: a depth-6 name under a
// depth-2 junction costs 2 probes, and a context rooted at depth 1 never
// probes its own base.
func TestResolveWalksShallowestFirst(t *testing.T) {
	full := MustParseName("a/b/c/d/e/f")
	s := &walkStub{levels: []stubLevel{ctxLevel, junction}}
	err := Resolve(context.Background(), OpLookup, Name{}, full, ErrNotFound, s.probe)
	var cpe *CannotProceedError
	if !errors.As(err, &cpe) || cpe.RemainingName.String() != "c/d/e/f" || cpe.AltName != "a/b" {
		t.Fatalf("%v, want a continuation at a/b with c/d/e/f remaining", err)
	}
	if len(s.asked) != 2 || s.asked[0] != 1 || s.asked[1] != 2 {
		t.Fatalf("probed depths %v, want [1 2]", s.asked)
	}

	s = &walkStub{}
	if err := Resolve(context.Background(), OpLookup, full.Prefix(1), full, ErrNotFound, s.probe); err != ErrNotFound {
		t.Fatalf("%v, want ErrNotFound", err)
	}
	if len(s.asked) != 4 || s.asked[0] != 2 || s.asked[3] != 5 {
		t.Fatalf("probed depths %v, want [2 3 4 5]", s.asked)
	}
}

// The rule costs nothing when it keeps an answer and only the
// continuation when it continues: the *CannotProceedError and the text
// of its AltName. It guards the one hop a benchmark operation takes, a
// DNS junction at depth 2.
func TestResolveAllocs(t *testing.T) {
	ctx := context.Background()
	full := MustParseName("global/mathcs/k1")
	stay := &walkStub{levels: []stubLevel{ctxLevel, ctxLevel}}
	hop := &walkStub{levels: []stubLevel{ctxLevel, junction}}
	stayProbe, hopProbe := stay.probe, hop.probe
	stay.asked = make([]int, 0, 1<<12)
	hop.asked = make([]int, 0, 1<<12)
	for _, tc := range []struct {
		name  string
		run   func() error
		allow float64
	}{
		{"nil before a write", func() error { return Resolve(ctx, OpBind, Name{}, full, nil, stayProbe) }, 0},
		{"provider's answer", func() error { return Resolve(ctx, OpLookup, Name{}, full, ErrNotFound, stayProbe) }, 0},
		{"unbind of a missing terminal", func() error { return Resolve(ctx, OpUnbind, Name{}, full, ErrNotFound, stayProbe) }, 0},
		{"continuation", func() error { return Resolve(ctx, OpLookup, Name{}, full, ErrNotFound, hopProbe) },
			1 + testing.AllocsPerRun(100, func() { _ = full.Prefix(2).String() })},
	} {
		stay.asked, hop.asked = stay.asked[:0], hop.asked[:0]
		if got := testing.AllocsPerRun(1000, func() { _ = tc.run() }); got > tc.allow {
			t.Errorf("%s: %.1f allocs, want <= %.0f", tc.name, got, tc.allow)
		}
	}
}

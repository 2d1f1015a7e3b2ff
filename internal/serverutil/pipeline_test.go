package serverutil

import (
	"errors"
	"fmt"
	"testing"

	"gondi/internal/admission"
	"gondi/internal/core"
)

// Serve on a resolved stage is free without a controller and without
// Costs, and with a controller costs no more than the admission decision
// itself — including when fn captures state, as every server's handler
// does.
func TestStageServeAllocs(t *testing.T) {
	served := 0
	serve := func(st *Stage) func() {
		return func() { _, _ = st.Serve(1, func() ([]byte, error) { served++; return nil, nil }) }
	}
	st := NewPipeline("test", "127.0.0.1:1", nil, nil).Stage("test.op", admission.Read)
	if n := testing.AllocsPerRun(100, serve(st)); n != 0 {
		t.Errorf("Serve with a nil controller: %v allocs, want 0", n)
	}

	ctrl := admission.NewController(admission.NewOptions(admission.WithServer("test-allocs")))
	live := NewPipeline("test", "127.0.0.1:1", ctrl, nil).Stage("test.op", admission.Read)
	admit := testing.AllocsPerRun(100, func() {
		release, _ := ctrl.Admit(admission.Read, "127.0.0.1:1", "test.op")
		release()
	})
	if n := testing.AllocsPerRun(100, serve(live)); n > admit {
		t.Errorf("Serve with a controller: %v allocs, Admit alone %v", n, admit)
	}
	if served == 0 {
		t.Fatal("fn never ran")
	}
}

// A shed returns the controller's typed busy error without running fn;
// fn's own error comes back unchanged.
func TestStageServeShedsTyped(t *testing.T) {
	ctrl := admission.NewController(admission.NewOptions(
		admission.WithServer("test-shed"), admission.WithQueueBound(1)))
	st := NewPipeline("test", "127.0.0.1:1", ctrl, nil).Stage("test.op", admission.Write)
	release, err := ctrl.Admit(admission.Write, "held", "hold")
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	_, err = st.Serve(0, func() ([]byte, error) { ran = true; return nil, nil })
	var busy *core.ServerBusyError
	if !errors.As(err, &busy) || busy.Op != "test.op" || busy.Endpoint != "127.0.0.1:1" || busy.RetryAfter <= 0 {
		t.Fatalf("shed: err = %v, want a *core.ServerBusyError for test.op with a hint", err)
	}
	if ran {
		t.Fatal("fn ran on a shed")
	}
	release()
	want := errors.New("handler failed")
	if _, err := st.Serve(0, func() ([]byte, error) { return nil, want }); err != want {
		t.Fatalf("Serve = %v, want fn's error", err)
	}
}

// charge is one call a fakeCosts saw, and whether fn had run by then.
type charge struct {
	kind  string
	n     int
	fnRan bool
}

// fakeCosts records every charge and refuses them all when refuse is set.
type fakeCosts struct {
	refuse  bool
	fnRan   *bool
	charges []charge
}

func (f *fakeCosts) ReadCost(n int) bool  { return f.charge("read", n) }
func (f *fakeCosts) WriteCost(n int) bool { return f.charge("write", n) }

func (f *fakeCosts) charge(kind string, n int) bool {
	f.charges = append(f.charges, charge{kind, n, *f.fnRan})
	return !f.refuse
}

// The one charge rule: a write pays WriteCost(request length) once,
// before fn, and a refused write never runs; a read or search pays
// ReadCost(response length) once, after fn, and a refused answer is
// dropped. Either refusal is a typed busy error for the stage's method.
func TestStageCharges(t *testing.T) {
	answer := []byte("twelve bytes")
	for _, tc := range []struct {
		class admission.Class
		want  charge
	}{
		{admission.Write, charge{"write", 7, false}},
		{admission.Read, charge{"read", len(answer), true}},
		{admission.Search, charge{"read", len(answer), true}},
	} {
		for _, refuse := range []bool{false, true} {
			ran := false
			costs := &fakeCosts{refuse: refuse, fnRan: &ran}
			st := NewPipeline("test", "127.0.0.1:1", nil, costs).Stage("test.op", tc.class)
			out, err := st.Serve(7, func() ([]byte, error) { ran = true; return answer, nil })
			name := fmt.Sprintf("%s (refuse %v)", tc.class, refuse)
			if len(costs.charges) != 1 || costs.charges[0] != tc.want {
				t.Fatalf("%s: charges %+v, want one %+v", name, costs.charges, tc.want)
			}
			if !refuse {
				if err != nil || string(out) != string(answer) || !ran {
					t.Fatalf("%s: out %q, err %v, fn ran %v", name, out, err, ran)
				}
				continue
			}
			var busy *core.ServerBusyError
			if !errors.As(err, &busy) || busy.Op != "test.op" || busy.Endpoint != "127.0.0.1:1" || busy.RetryAfter != stationBusyRetryAfter {
				t.Fatalf("%s: err = %v, want a *core.ServerBusyError for test.op", name, err)
			}
			if out != nil || ran != tc.want.fnRan {
				t.Fatalf("%s: answer %q sent, fn ran %v", name, out, ran)
			}
		}
	}
}

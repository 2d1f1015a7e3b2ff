package serverutil

import (
	"errors"
	"testing"

	"gondi/internal/admission"
	"gondi/internal/core"
)

// Serve on a resolved stage is free without a controller, and with one
// costs no more than the admission decision itself — including when fn
// captures a result, as every server's handler does.
func TestStageServeAllocs(t *testing.T) {
	served := 0
	serve := func(st *Stage) func() {
		return func() { _ = st.Serve(func() error { served++; return nil }) }
	}
	st := NewPipeline("test", "127.0.0.1:1", nil).Stage("test.op", admission.Read)
	if n := testing.AllocsPerRun(100, serve(st)); n != 0 {
		t.Errorf("Serve with a nil controller: %v allocs, want 0", n)
	}

	ctrl := admission.NewController(admission.NewOptions(admission.WithServer("test-allocs")))
	live := NewPipeline("test", "127.0.0.1:1", ctrl).Stage("test.op", admission.Read)
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
	st := NewPipeline("test", "127.0.0.1:1", ctrl).Stage("test.op", admission.Write)
	release, err := ctrl.Admit(admission.Write, "held", "hold")
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	err = st.Serve(func() error { ran = true; return nil })
	var busy *core.ServerBusyError
	if !errors.As(err, &busy) || busy.Op != "test.op" || busy.Endpoint != "127.0.0.1:1" || busy.RetryAfter <= 0 {
		t.Fatalf("shed: err = %v, want a *core.ServerBusyError for test.op with a hint", err)
	}
	if ran {
		t.Fatal("fn ran on a shed")
	}
	release()
	want := errors.New("handler failed")
	if err := st.Serve(func() error { return want }); err != want {
		t.Fatalf("Serve = %v, want fn's error", err)
	}
}

package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestErrfAllocs gates the cost of labelling a failure: Errf allocates
// the *NamingError and nothing else. It also pins that a
// *CannotProceedError reached through either Unwrap chain still passes
// through undecorated, as errors.As would have found it.
func TestErrfAllocs(t *testing.T) {
	var err error
	if n := testing.AllocsPerRun(1000, func() {
		err = Errf("lookup", "x", ErrNotFound)
	}); n != 1 {
		t.Fatalf("Errf allocates %v times per call, want 1", n)
	}
	var ne *NamingError
	if !errors.As(err, &ne) || ne.Op != "lookup" || ne.Name != "x" || !errors.Is(err, ErrNotFound) {
		t.Fatalf("Errf = %v", err)
	}
	cpe := &CannotProceedError{AltName: "boundary"}
	for _, wrapped := range []error{
		cpe,
		fmt.Errorf("hop: %w", cpe),
		errors.Join(ErrNotFound, fmt.Errorf("hop: %w", cpe)),
	} {
		if got := Errf("lookup", "x", wrapped); got != wrapped {
			t.Errorf("Errf(%v) = %v, want it undecorated", wrapped, got)
		}
	}
}

package rpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gondi/internal/core"
)

// statusCase is one status of the vocabulary: the core error a handler
// returns and the errors.Is/errors.As test the client's error must pass.
type statusCase struct {
	name string
	err  error
	is   func(err error) bool
}

func sentinelCase(name string, target error) statusCase {
	return statusCase{name, target, func(err error) bool { return errors.Is(err, target) }}
}

func isInvalidName(err error) bool { return errors.As(err, new(*core.InvalidNameError)) }

func isBusy(err error) bool {
	var sbe *core.ServerBusyError
	return errors.As(err, &sbe) && sbe.RetryAfter == 30*time.Millisecond
}

func isUnavailable(err error) bool { return errors.As(err, new(*core.ServiceUnavailableError)) }

func statusCases() []statusCase {
	return []statusCase{
		sentinelCase("not-found", core.ErrNotFound),
		sentinelCase("already-bound", core.ErrAlreadyBound),
		sentinelCase("not-context", core.ErrNotContext),
		sentinelCase("not-empty", core.ErrContextNotEmpty),
		sentinelCase("not-supported", core.ErrNotSupported),
		sentinelCase("denied", core.ErrNoPermission),
		{"invalid-name", &core.InvalidNameError{Name: "a//b", Reason: "empty component"}, isInvalidName},
		{"invalid-name-empty", core.ErrInvalidNameEmpty, isInvalidName},
		{"busy", &core.ServerBusyError{Endpoint: "srv", Op: "op", RetryAfter: 30 * time.Millisecond}, isBusy},
		{"unavailable", &core.ServiceUnavailableError{Endpoint: "srv", Err: errors.New("reworded reason")}, isUnavailable},
	}
}

// The status round trip is independent of the message: whatever text a
// handler wraps around a core error, the client's error satisfies the
// same errors.Is/errors.As — through Call and through a CallBatch item —
// while RemoteError.Msg still carries the server's text for display.
func TestStatusRoundTripIgnoresMessage(t *testing.T) {
	s, c := newPair(t)
	ctx := context.Background()
	for i, tc := range statusCases() {
		method := "status." + tc.name
		s.Handle(method, func(*ServerConn, []byte) ([]byte, error) {
			return nil, fmt.Errorf("reworded %d: %w", i, tc.err)
		})
		t.Run(tc.name, func(t *testing.T) {
			_, callErr := c.Call(ctx, method, nil)
			res, err := c.CallBatch(ctx, []BatchItem{{Method: method}})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for via, got := range map[string]error{"Call": callErr, "CallBatch": res[0].Err} {
				if !tc.is(got) {
					t.Errorf("%s: %v (%T) does not satisfy the %s status", via, got, got, tc.name)
				}
				if cerr := CoreError("srv", got); !tc.is(cerr) || errors.As(cerr, new(*core.CommunicationError)) {
					t.Errorf("%s: CoreError = %v (%T), want the bare %s error", via, cerr, cerr, tc.name)
				}
				if tc.name == "busy" {
					continue // the err field carries the hint, not text
				}
				var re *RemoteError
				if !errors.As(got, &re) || !strings.Contains(re.Msg, "reworded") || re.Method != method {
					t.Errorf("%s: RemoteError = %+v, want Msg carrying the server's text", via, re)
				}
			}
		})
	}
}

// An error outside the vocabulary is internal: it unwraps to nothing, and
// a provider sees it as a communication failure, exactly as before.
func TestInternalStatusIsCommunicationError(t *testing.T) {
	s, c := newPair(t)
	s.Handle("fail", func(*ServerConn, []byte) ([]byte, error) {
		return nil, errors.New("name not found") // a sentinel's text, not its identity
	})
	_, err := c.Call(context.Background(), "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Unwrap() != nil || errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want an internal RemoteError", err)
	}
	if !errors.As(CoreError("srv", err), new(*core.CommunicationError)) {
		t.Fatalf("CoreError(%v) is not a *core.CommunicationError", err)
	}
}

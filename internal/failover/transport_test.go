package failover

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/core"
	"gondi/internal/rpc"
)

// remoteErr returns the error a real rpc call sees when its handler
// answers with err: the status crosses the wire, not the text.
func remoteErr(t *testing.T, err error) error {
	t.Helper()
	s, serr := rpc.NewServer("127.0.0.1:0")
	if serr != nil {
		t.Fatal(serr)
	}
	t.Cleanup(func() { s.Close() })
	s.Handle("m", func(*rpc.ServerConn, []byte) ([]byte, error) { return nil, err })
	c, derr := rpc.Dial(s.Addr(), 2*time.Second)
	if derr != nil {
		t.Fatal(derr)
	}
	t.Cleanup(func() { c.Close() })
	_, cerr := c.Call(context.Background(), "m", nil)
	if cerr == nil {
		t.Fatal("call succeeded")
	}
	return cerr
}

func TestTransportClass(t *testing.T) {
	notFound := remoteErr(t, fmt.Errorf("gone: %w", core.ErrNotFound))
	internal := remoteErr(t, errors.New("handler exploded"))
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"rpc semantic status", notFound, false},
		{"rpc semantic status as a provider surfaces it", rpc.CoreError("ep", notFound), false},
		{"rpc internal as a provider surfaces it", rpc.CoreError("ep", internal), true},
		{"rpc busy", remoteErr(t, &core.ServerBusyError{RetryAfter: time.Millisecond}), true},
		{"rpc unavailable", remoteErr(t, &core.ServiceUnavailableError{Err: errors.New("sealed")}), true},
		{"breaker open", breaker.ErrOpen, true},
		{"canceled", context.Canceled, false},
		{"deadline inside a communication error", &core.CommunicationError{Err: context.DeadlineExceeded}, false},
	}
	for _, tc := range cases {
		if got := TransportClass(tc.err); got != tc.want {
			t.Errorf("%s: TransportClass(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

package failover

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gondi/internal/breaker"
	"gondi/internal/core"
	"gondi/internal/rpc"
)

func TestEndpointsSplitsAndTrims(t *testing.T) {
	got := Endpoints(" a:1 ,b:2,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Endpoints = %v, want %v", got, want)
	}
}

func TestOpenFailsOverToHealthyEndpoint(t *testing.T) {
	breaker.ResetAll()
	var tried []string
	v, err := Open(context.Background(), "dead:1,live:2", func(ctx context.Context, ep string) (string, error) {
		tried = append(tried, ep)
		if ep == "dead:1" {
			return "", &core.CommunicationError{Endpoint: ep, Err: errors.New("connection refused")}
		}
		return "ctx@" + ep, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != "ctx@live:2" {
		t.Fatalf("v = %q", v)
	}
	if !reflect.DeepEqual(tried, []string{"dead:1", "live:2"}) {
		t.Fatalf("tried = %v", tried)
	}
}

func TestOpenSkipsBreakerOpenEndpoints(t *testing.T) {
	breaker.ResetAll()
	// Trip dead:1's breaker.
	br := breaker.For("dead:1")
	for i := 0; i < 10; i++ {
		br.Record(true)
	}
	var tried []string
	_, err := Open(context.Background(), "dead:1,live:2", func(ctx context.Context, ep string) (string, error) {
		tried = append(tried, ep)
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tried, []string{"live:2"}) {
		t.Fatalf("tried = %v, want only the healthy endpoint", tried)
	}
}

func TestOpenAllDownIsServiceUnavailable(t *testing.T) {
	breaker.ResetAll()
	boom := errors.New("boom")
	_, err := Open(context.Background(), "a:1,b:2", func(ctx context.Context, ep string) (string, error) {
		return "", &core.CommunicationError{Endpoint: ep, Err: fmt.Errorf("dial %s: %w", ep, boom)}
	})
	var sue *core.ServiceUnavailableError
	if !errors.As(err, &sue) {
		t.Fatalf("err = %v, want ServiceUnavailableError", err)
	}
	if sue.Endpoint != "b:2" {
		t.Fatalf("Endpoint = %q", sue.Endpoint)
	}
	if !errors.Is(err, boom) {
		t.Fatal("underlying cause not preserved")
	}
}

// An endpoint that answers ends the search: a wrong secret through
// "hdns://a,b" is refused once, as itself, and b is never dialled.
func TestOpenStopsAtFirstAnswer(t *testing.T) {
	breaker.ResetAll()
	second := breaker.Configure("b:2", breaker.Config{Threshold: 1, Cooldown: time.Minute})
	refused := remoteErr(t, fmt.Errorf("hdns: bad secret: %w", core.ErrNoPermission))
	var tried []string
	_, err := Open(context.Background(), "a:1,b:2", func(ctx context.Context, ep string) (string, error) {
		tried = append(tried, ep)
		if ep == "a:1" {
			return "", instrumented(ep, rpc.CoreError(ep, refused))
		}
		return "", instrumented(ep, &core.CommunicationError{Endpoint: ep, Err: errors.New("unreachable")})
	})
	if !reflect.DeepEqual(tried, []string{"a:1"}) {
		t.Fatalf("tried = %v, want only the endpoint that answered", tried)
	}
	if second.State() != breaker.Closed {
		t.Fatalf("second endpoint's breaker = %v, want untouched", second.State())
	}
	if !errors.Is(err, core.ErrNoPermission) {
		t.Fatalf("err = %v, want core.ErrNoPermission", err)
	}
	var sue *core.ServiceUnavailableError
	if errors.As(err, &sue) {
		t.Fatalf("err = %v: an answer wrapped as service unavailable", err)
	}
}

func TestOpenAllBreakersOpen(t *testing.T) {
	breaker.ResetAll()
	for _, ep := range []string{"a:1", "b:2"} {
		br := breaker.For(ep)
		for i := 0; i < 10; i++ {
			br.Record(true)
		}
	}
	_, err := Open(context.Background(), "a:1,b:2", func(ctx context.Context, ep string) (string, error) {
		t.Fatalf("dial reached %s through an open breaker", ep)
		return "", nil
	})
	var sue *core.ServiceUnavailableError
	if !errors.As(err, &sue) {
		t.Fatalf("err = %v, want ServiceUnavailableError", err)
	}
	if !errors.Is(err, breaker.ErrOpen) {
		t.Fatalf("err = %v, want to wrap breaker.ErrOpen", err)
	}
}

// instrumented wraps a dial result in the breaker accounting every real
// dial layer (rpc/ldapsrv/dnssrv DialContext) performs: Allow before the
// wire, Record after.
func instrumented(ep string, err error) error {
	br := breaker.For(ep)
	if aerr := br.Allow(); aerr != nil {
		return aerr
	}
	br.Record(err != nil)
	return err
}

func TestOpenRepeatedFailuresTripBreaker(t *testing.T) {
	breaker.ResetAll()
	calls := 0
	for i := 0; i < 10; i++ {
		_, _ = Open(context.Background(), "flaky:9", func(ctx context.Context, ep string) (string, error) {
			calls++
			return "", instrumented(ep, errors.New("reset by peer"))
		})
	}
	// The dial layer is the only accountant, so the breaker trips after
	// exactly DefaultThreshold wire attempts — not half that from failover
	// double-recording the same failures.
	if calls != breaker.DefaultThreshold {
		t.Fatalf("dial attempts = %d for 10 opens, want exactly %d (the trip threshold)", calls, breaker.DefaultThreshold)
	}
	if breaker.For("flaky:9").State() != breaker.Open {
		t.Fatalf("breaker state = %v", breaker.For("flaky:9").State())
	}
}

func TestOpenRecordsNothingItself(t *testing.T) {
	breaker.ResetAll()
	for i := 0; i < 20; i++ {
		_, err := Open(context.Background(), "slow:1", func(c context.Context, ep string) (string, error) {
			return "", errors.New("boom")
		})
		if err == nil {
			t.Fatal("expected error")
		}
	}
	// The dial func above does no breaker accounting, and failover must
	// not either: breaker state is owned by exactly one layer.
	if st := breaker.For("slow:1").State(); st != breaker.Closed {
		t.Fatalf("failover charged the breaker itself: state = %v", st)
	}
}

func TestOpenHalfOpenProbeReachesTheWire(t *testing.T) {
	breaker.ResetAll()
	const ep = "heal:1"
	br := breaker.Configure(ep, breaker.Config{Threshold: 1, Cooldown: 30 * time.Millisecond})
	dead := true
	dials := 0
	dial := func(ctx context.Context, e string) (string, error) {
		dials++
		if dead {
			return "", instrumented(e, errors.New("connection refused"))
		}
		return "ctx@" + e, instrumented(e, nil)
	}
	if _, err := Open(context.Background(), ep, dial); err == nil {
		t.Fatal("expected the dead endpoint to fail")
	}
	if br.State() != breaker.Open {
		t.Fatalf("state after failure = %v, want open", br.State())
	}
	// While open, failover must skip the endpoint without touching it.
	if _, err := Open(context.Background(), ep, dial); !errors.Is(err, breaker.ErrOpen) {
		t.Fatalf("err while open = %v, want to wrap breaker.ErrOpen", err)
	}
	if dials != 1 {
		t.Fatalf("dials = %d, want 1: the open-state attempt must be skipped", dials)
	}
	// Once the endpoint heals and the cooldown elapses, the half-open
	// probe must flow through failover to the dial layer and close the
	// circuit — with no operator Reset.
	dead = false
	time.Sleep(50 * time.Millisecond)
	v, err := Open(context.Background(), ep, dial)
	if err != nil {
		t.Fatalf("half-open probe did not re-admit the healed endpoint: %v", err)
	}
	if v != "ctx@"+ep {
		t.Fatalf("v = %q", v)
	}
	if br.State() != breaker.Closed {
		t.Fatalf("state after successful probe = %v, want closed", br.State())
	}
}

func TestOpenEmptyAuthority(t *testing.T) {
	_, err := Open(context.Background(), " , ", func(ctx context.Context, ep string) (string, error) {
		return "", nil
	})
	var sue *core.ServiceUnavailableError
	if !errors.As(err, &sue) {
		t.Fatalf("err = %v", err)
	}
}

package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestCallRoundTrip(t *testing.T) {
	s, c := newPair(t)
	s.Handle("echo", func(_ *ServerConn, body []byte) ([]byte, error) {
		return body, nil
	})
	out, err := c.Call(context.Background(), "echo", []byte("hello"))
	if err != nil || !bytes.Equal(out, []byte("hello")) {
		t.Fatalf("Call = %q, %v", out, err)
	}
}

func TestRemoteError(t *testing.T) {
	s, c := newPair(t)
	s.Handle("fail", func(_ *ServerConn, _ []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := c.Call(context.Background(), "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, c := newPair(t)
	if _, err := c.Call(context.Background(), "nope", nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestConcurrentCalls(t *testing.T) {
	s, c := newPair(t)
	s.Handle("id", func(_ *ServerConn, body []byte) ([]byte, error) {
		return body, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			out, err := c.Call(context.Background(), "id", msg)
			if err != nil || !bytes.Equal(out, msg) {
				t.Errorf("call %d: %q, %v", i, out, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestPush(t *testing.T) {
	s, c := newPair(t)
	got := make(chan string, 1)
	c.OnPush(func(method string, body []byte) {
		got <- method + ":" + string(body)
	})
	s.Handle("subscribe", func(sc *ServerConn, _ []byte) ([]byte, error) {
		go sc.Push("event", []byte("data"))
		return nil, nil
	})
	if _, err := c.Call(context.Background(), "subscribe", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "event:data" {
			t.Errorf("push = %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no push received")
	}
}

func TestConnState(t *testing.T) {
	s, c := newPair(t)
	s.Handle("set", func(sc *ServerConn, body []byte) ([]byte, error) {
		sc.Set("k", string(body))
		return nil, nil
	})
	s.Handle("get", func(sc *ServerConn, _ []byte) ([]byte, error) {
		v, _ := sc.Get("k")
		str, _ := v.(string)
		return []byte(str), nil
	})
	if _, err := c.Call(context.Background(), "set", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	out, err := c.Call(context.Background(), "get", nil)
	if err != nil || string(out) != "v1" {
		t.Fatalf("get = %q, %v", out, err)
	}
}

func TestOnConnClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	closed := make(chan struct{})
	s.OnConnClose(func(*ServerConn) { close(closed) })
	c, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Ensure the connection is established server-side first.
	s.Handle("ping", func(*ServerConn, []byte) ([]byte, error) { return nil, nil })
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("OnConnClose not fired")
	}
}

func TestCallAfterServerClose(t *testing.T) {
	s, c := newPair(t)
	s.Handle("ping", func(*ServerConn, []byte) ([]byte, error) { return nil, nil })
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Wait for the client to observe the close.
	deadline := time.Now().Add(2 * time.Second)
	for !c.Closed() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Call(context.Background(), "ping", nil); err == nil {
		t.Fatal("call after close should fail")
	}
}

func TestLargePayload(t *testing.T) {
	s, c := newPair(t)
	s.Handle("echo", func(_ *ServerConn, body []byte) ([]byte, error) {
		return body, nil
	})
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	out, err := c.Call(context.Background(), "echo", big)
	if err != nil || !bytes.Equal(out, big) {
		t.Fatalf("1MB echo failed: len=%d err=%v", len(out), err)
	}
}

func TestSlowHandlerTimeout(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle("slow", func(*ServerConn, []byte) ([]byte, error) {
		time.Sleep(500 * time.Millisecond)
		return nil, nil
	})
	c, err := Dial(s.Addr(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), "slow", nil); err == nil {
		t.Fatal("expected timeout")
	}
}

func TestCallHonorsContextCancel(t *testing.T) {
	s, c := newPair(t)
	release := make(chan struct{})
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "block", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call did not abort on cancel")
	}
}

func TestCallHonorsContextDeadline(t *testing.T) {
	s, c := newPair(t)
	release := make(chan struct{})
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, "block", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline ignored: call took %v", elapsed)
	}
}

func TestClosePendingCallsGetErrClientClosed(t *testing.T) {
	s, c := newPair(t)
	release := make(chan struct{})
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	const n = 5
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Call(context.Background(), "block", nil)
			errs <- err
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the calls get in flight
	c.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("pending call err = %v, want ErrClientClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pending call hung after Close")
		}
	}
	// New calls fail the same way.
	if _, err := c.Call(context.Background(), "block", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close call err = %v, want ErrClientClosed", err)
	}
}

func TestPeerCloseYieldsErrConnClosed(t *testing.T) {
	s, c := newPair(t)
	s.Handle("ping", func(*ServerConn, []byte) ([]byte, error) { return nil, nil })
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client did not observe server close")
	}
	if _, err := c.Call(context.Background(), "ping", nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
}

// TestReadLoopExitsOnClose proves the readLoop goroutine terminates after
// Close — both with an idle connection and with calls in flight.
func TestReadLoopExitsOnClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	block := make(chan struct{})
	defer close(block)
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	for _, inflight := range []bool{false, true} {
		c, err := Dial(s.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if inflight {
			go func() { _, _ = c.Call(context.Background(), "block", nil) }()
			time.Sleep(10 * time.Millisecond)
		}
		c.Close()
		select {
		case <-c.Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("readLoop leaked (inflight=%v)", inflight)
		}
	}
}

// TestCallMetricsResolvedOnce is an allocations gate cited by check.sh:
// with obs on, Call takes its method-labelled instruments from a handle
// resolved at the method's first call, so a steady-state loopback round
// trip (both sides; AllocsPerRun counts the process) stays ≤ 12
// allocations. Three labelled registry lookups per call put it at 33.
func TestCallMetricsResolvedOnce(t *testing.T) {
	s, c := newPair(t)
	s.Handle("echo", func(_ *ServerConn, body []byte) ([]byte, error) { return body, nil })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body := make([]byte, 256)
	call := func() {
		if _, err := c.Call(ctx, "echo", body); err != nil {
			t.Fatal(err)
		}
	}
	call() // resolves the handle, warms pooled buffers
	if metricsFor("echo") != metricsFor("echo") {
		t.Fatal("per-method handle is not stable")
	}
	before := metricsFor("echo").calls.Value()
	if n := testing.AllocsPerRun(200, call); n > 12 {
		t.Fatalf("loopback Call allocates %.1f per op, want <= 12", n)
	}
	if got := metricsFor("echo").calls.Value() - before; got != 201 {
		t.Fatalf("gondi_rpc_calls_total{method=echo} moved by %d over 201 calls", got)
	}
}

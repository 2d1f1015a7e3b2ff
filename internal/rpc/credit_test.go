package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
)

// newWindowPair builds a server advertising a tiny in-flight window and a
// connected client that has already applied the credit frame.
func newWindowPair(t *testing.T, window int) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.setWindow(window)
	s.Handle("ping", func(*ServerConn, []byte) ([]byte, error) { return nil, nil })
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// A round trip guarantees the credit frame (written before any
	// response) has been applied.
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	if got := c.creditLimit(); got != window {
		t.Fatalf("credit limit = %d, want advertised %d", got, window)
	}
	return s, c
}

// creditLimit exposes the gate's current window to in-package tests.
func (c *Client) creditLimit() int {
	c.credits.mu.Lock()
	defer c.credits.mu.Unlock()
	return c.credits.limit
}

func (c *Client) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func (c *Client) creditsUsed() int {
	c.credits.mu.Lock()
	defer c.credits.mu.Unlock()
	return c.credits.used
}

// TestCreditWindowBoundsInflight proves callers beyond the advertised
// window block until a credit frees, instead of piling onto the wire.
func TestCreditWindowBoundsInflight(t *testing.T) {
	s, c := newWindowPair(t, 2)
	release := make(chan struct{})
	var mu sync.Mutex
	inflight, peak := 0, 0
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		<-release
		mu.Lock()
		inflight--
		mu.Unlock()
		return nil, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Call(context.Background(), "block", nil)
		}()
	}
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	got := inflight
	mu.Unlock()
	if got != 2 {
		t.Fatalf("handler inflight = %d, want window 2", got)
	}
	close(release)
	wg.Wait()
	if peak > 2 {
		t.Fatalf("peak inflight = %d exceeded window 2", peak)
	}
	if used := c.creditsUsed(); used != 0 {
		t.Fatalf("credits still held after drain: %d", used)
	}
}

// TestCanceledCallReleasesEntryAndCredit is the pending-map leak
// regression test: a ctx-canceled call must remove its pending entry and
// return its credit immediately, not wait for the straggling response.
func TestCanceledCallReleasesEntryAndCredit(t *testing.T) {
	s, c := newWindowPair(t, 1)
	release := make(chan struct{})
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "block", nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // call in flight, holding the only credit
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := c.pendingLen(); n != 0 {
		t.Fatalf("pending map holds %d abandoned entries", n)
	}
	if used := c.creditsUsed(); used != 0 {
		t.Fatalf("abandoned call still holds %d credits", used)
	}
	// The freed credit admits the next call without waiting for the
	// abandoned op's response (which never comes until release closes).
	quick := make(chan error, 1)
	go func() {
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
		defer cancel2()
		_, err := c.Call(ctx2, "ping", nil)
		quick <- err
	}()
	select {
	case err := <-quick:
		if err != nil {
			t.Fatalf("follow-up call: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follow-up call starved: credit not returned on cancel")
	}
	close(release)
}

// TestServerShedsBeyondHardCap proves the server answers (not hangs, not
// kills the conn) with a typed busy error once its enforcement cap is
// exceeded by a client that ignores credits.
func TestServerShedsBeyondHardCap(t *testing.T) {
	s, c := newWindowPair(t, 1) // hard cap = 2
	release := make(chan struct{})
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	// Bypass the client gate to emulate a misbehaving sender.
	c.credits.setLimit(64)
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := c.Call(ctx, "block", nil)
			errs <- err
		}()
		time.Sleep(20 * time.Millisecond) // order arrivals so the third trips the cap
	}
	var busy *core.ServerBusyError
	if err := <-errs; !errors.As(err, &busy) {
		t.Fatalf("third call err = %v, want *core.ServerBusyError", err)
	}
	// Drain the two admitted calls, then prove the connection survived
	// the shed.
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted call failed: %v", err)
		}
	}
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatalf("conn unusable after busy shed: %v", err)
	}
}

func TestCallBatchRoundTrip(t *testing.T) {
	s, c := newWindowPair(t, 4)
	s.Handle("echo", func(_ *ServerConn, body []byte) ([]byte, error) {
		return body, nil
	})
	s.Handle("fail", func(*ServerConn, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	items := []BatchItem{
		{Method: "echo", Body: []byte("a")},
		{Method: "fail", Body: nil},
		{Method: "echo", Body: []byte("c")},
		{Method: "nope", Body: nil},
	}
	out, err := c.CallBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d results", len(out))
	}
	if !bytes.Equal(out[0].Body, []byte("a")) || !bytes.Equal(out[2].Body, []byte("c")) {
		t.Fatalf("order not preserved: %q, %q", out[0].Body, out[2].Body)
	}
	var re *RemoteError
	if !errors.As(out[1].Err, &re) || re.Method != "fail" || re.Msg != "boom" {
		t.Fatalf("item 1 err = %v", out[1].Err)
	}
	if !errors.As(out[3].Err, &re) || re.Method != "nope" {
		t.Fatalf("item 3 err = %v", out[3].Err)
	}
	// One batch = one credit: all four ops fit a window of 4 trivially,
	// and the gate is drained afterwards.
	if used := c.creditsUsed(); used != 0 {
		t.Fatalf("credits after batch: %d", used)
	}
}

// TestCallBatchOrderAcrossWrites proves batch items execute sequentially:
// a later item observes the earlier item's server-side effect.
func TestCallBatchOrderAcrossWrites(t *testing.T) {
	s, c := newWindowPair(t, 4)
	s.Handle("set", func(sc *ServerConn, body []byte) ([]byte, error) {
		sc.Set("k", string(body))
		return nil, nil
	})
	s.Handle("get", func(sc *ServerConn, _ []byte) ([]byte, error) {
		v, _ := sc.Get("k")
		str, _ := v.(string)
		return []byte(str), nil
	})
	out, err := c.CallBatch(context.Background(), []BatchItem{
		{Method: "set", Body: []byte("first")},
		{Method: "get"},
		{Method: "set", Body: []byte("second")},
		{Method: "get"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(out[1].Body) != "first" || string(out[3].Body) != "second" {
		t.Fatalf("sequential order broken: %q, %q", out[1].Body, out[3].Body)
	}
}

// TestBatchSeveredConnFailsTyped proves in-flight batches fail with a
// typed error — never hang — when the connection dies under them.
func TestBatchSeveredConnFailsTyped(t *testing.T) {
	s, c := newWindowPair(t, 4)
	block := make(chan struct{})
	defer close(block)
	s.Handle("block", func(*ServerConn, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.CallBatch(context.Background(), []BatchItem{{Method: "block"}})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	// Sever the server side of the conn without Server.Close (which would
	// wait for the blocked handler); the cleanup-ordered close(block)
	// releases it before the registered s.Close cleanup runs.
	s.mu.Lock()
	for sc := range s.conns {
		sc.conn.Close()
	}
	s.mu.Unlock()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("err = %v, want ErrConnClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight batch hung on severed conn")
	}
}

// TestCreditStallThenProceed proves stalled callers proceed as credits
// free (no lost wakeups in the gate): with a window of 1, twenty
// concurrent calls serialize and all complete.
func TestCreditStallThenProceed(t *testing.T) {
	_, c := newWindowPair(t, 1)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := c.Call(ctx, "ping", nil); err != nil {
				t.Errorf("serialized call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if used := c.creditsUsed(); used != 0 {
		t.Fatalf("credits leaked under contention: %d", used)
	}
}

// TestLargeBatch pushes a batch near the item cap through one frame.
func TestLargeBatch(t *testing.T) {
	s, c := newWindowPair(t, 4)
	s.Handle("echo", func(_ *ServerConn, body []byte) ([]byte, error) {
		return body, nil
	})
	n := 1000
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Method: "echo", Body: []byte(fmt.Sprintf("item-%d", i))}
	}
	out, err := c.CallBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Err != nil || string(out[i].Body) != fmt.Sprintf("item-%d", i) {
			t.Fatalf("item %d = %q, %v", i, out[i].Body, out[i].Err)
		}
	}
}

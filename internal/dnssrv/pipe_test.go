package dnssrv

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// narrowIDs is a rand.Source under which Resolver.id draws only the
// query IDs 0..n-1 in turn, so exchanges reuse IDs as fast as possible.
type narrowIDs struct{ n, i int64 }

func (s *narrowIDs) Int63() int64 {
	s.i++
	return (s.i % s.n) << 32 // Intn(1<<16) keeps bits 32..47
}

func (s *narrowIDs) Seed(int64) {}

// TestUnregisterKeepsReusedID: exchange A's reply frees its ID, exchange
// B claims the same ID, and only then does A's deferred unregister run.
// That unregister must not take B's entry, or B's reply is dropped and B
// waits out its whole attempt timeout.
func TestUnregisterKeepsReusedID(t *testing.T) {
	r := &Resolver{rnd: rand.New(&narrowIDs{n: 1})}
	p := &udpPipe{pending: map[uint16]chan *Message{}}
	idA, chA, err := p.register(r)
	if err != nil {
		t.Fatal(err)
	}
	p.deliver(&Message{Header: Header{ID: idA, QR: true}})
	idB, chB, err := p.register(r)
	if err != nil {
		t.Fatal(err)
	}
	if idB != idA {
		t.Fatalf("B drew ID %d, want A's freed ID %d", idB, idA)
	}
	p.unregister(idA, chA)
	p.deliver(&Message{Header: Header{ID: idB, QR: true}})
	select {
	case resp := <-chB:
		if resp.Header.ID != idB {
			t.Fatalf("B got the reply for ID %d", resp.Header.ID)
		}
	default:
		t.Fatal("B's reply was dropped: A's unregister removed B's entry")
	}
	if <-chA == nil {
		t.Fatal("A lost its reply")
	}
}

// TestReusedIDsNeverStall runs two clients against a live server for 2 s
// with the resolver's IDs narrowed to two values, so every exchange
// reuses an ID another exchange has just freed. No exchange may wait out
// its 2 s attempt timeout.
func TestReusedIDsNeverStall(t *testing.T) {
	_, r := newTestServer(t)
	r.mu.Lock()
	r.rnd = rand.New(&narrowIDs{n: 2})
	r.mu.Unlock()
	ctx := context.Background()
	end := time.Now().Add(2 * time.Second)
	var (
		wg              sync.WaitGroup
		mu              sync.Mutex
		slowest         time.Duration
		exchanges, errs int
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				start := time.Now()
				_, err := r.Query(ctx, "emory.global", TypeA)
				d := time.Since(start)
				mu.Lock()
				exchanges++
				if err != nil {
					errs++
				}
				slowest = max(slowest, d)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if errs > 0 || slowest > time.Second {
		t.Fatalf("%d exchanges: %d failed, slowest took %v", exchanges, errs, slowest)
	}
	t.Logf("%d exchanges, slowest %v", exchanges, slowest)
}

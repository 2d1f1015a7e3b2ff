package costmodel

import (
	"sync"
	"testing"
	"time"
)

func TestNilStationNoop(t *testing.T) {
	var s *Station
	if !s.Do(0) {
		t.Error("nil station must admit")
	}
	if s.QueueLen() != 0 || s.Completed() != 0 {
		t.Error("nil station counters must be zero")
	}
}

func TestStationSaturation(t *testing.T) {
	// 1 worker, 5ms service => capacity 200/s. 16 hot loops for 250ms
	// must complete close to 50 ops, far below the unconstrained rate.
	s := NewStation(1, 5*time.Millisecond)
	stop := time.Now().Add(250 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				s.Do(0)
			}
		}()
	}
	wg.Wait()
	got := s.Completed()
	if got < 30 || got > 80 {
		t.Errorf("completed %d ops in 250ms, want ~50 (capacity 200/s)", got)
	}
}

func TestStationDegrade(t *testing.T) {
	// With heavy degradation, backlog inflates service time: throughput
	// under 16-way load must fall well below nominal capacity.
	plain := NewStation(1, 2*time.Millisecond)
	degraded := NewStation(1, 2*time.Millisecond, WithDegradePerQueued(2*time.Millisecond))
	run := func(s *Station) int64 {
		stop := time.Now().Add(250 * time.Millisecond)
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					s.Do(0)
				}
			}()
		}
		wg.Wait()
		return s.Completed()
	}
	p, d := run(plain), run(degraded)
	if d*2 >= p {
		t.Errorf("degraded station did %d vs plain %d; want < half", d, p)
	}
}

func TestStationQueueCap(t *testing.T) {
	s := NewStation(1, 20*time.Millisecond, WithQueueCap(2))
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected := 0
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !s.Do(0) {
				mu.Lock()
				rejected++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Error("queue cap never rejected under 10-way burst")
	}
	if rejected >= 10 {
		t.Error("all operations rejected")
	}
}

func TestRateLimiter(t *testing.T) {
	r := NewRateLimiter(100, 1) // 100/s
	start := time.Now()
	for i := 0; i < 20; i++ {
		r.Wait()
	}
	elapsed := time.Since(start)
	// 20 ops at 100/s with burst 1 needs >= ~150ms (tolerant bounds).
	if elapsed < 120*time.Millisecond {
		t.Errorf("20 ops took %v, limiter too permissive", elapsed)
	}
	var nilR *RateLimiter
	nilR.Wait() // must not block or panic
}

func TestCostsPerByte(t *testing.T) {
	c := &Costs{Read: NewStation(1, time.Millisecond), PerByte: time.Microsecond}
	start := time.Now()
	c.ReadCost(5000) // 1ms + 5ms
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Errorf("per-byte cost not charged: %v", e)
	}
	var nilC *Costs
	if !nilC.ReadCost(10) || !nilC.WriteCost(10) {
		t.Error("nil costs must admit")
	}
}

func TestCalibrationConstructors(t *testing.T) {
	if c := JiniCosts(); c.Read == nil || c.Write == nil || c.PerByte == 0 {
		t.Error("JiniCosts incomplete")
	}
	if c := HDNSCosts(); c.Read == nil || c.Write == nil {
		t.Error("HDNSCosts incomplete")
	}
	if c := HDNSBoundedCosts(); c.Write.queueCap == 0 {
		t.Error("bounded variant must cap the queue")
	}
	if c := DNSCosts(); c.Read == nil {
		t.Error("DNSCosts incomplete")
	}
	if c := LDAPCosts(); c.Read == nil || c.Throttle == nil {
		t.Error("LDAPCosts incomplete")
	}
}

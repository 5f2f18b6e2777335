package ratelimit

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutable clock for driving the limiter without sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestBurstThenRefused(t *testing.T) {
	clk := newFakeClock()
	l := New(clk.now)
	// 60/min = 1/sec, burst 3: three requests pass, the fourth is
	// refused with a whole-second Retry-After.
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("tenant-a", 1, 3); !ok {
			t.Fatalf("request %d inside burst refused", i)
		}
	}
	ok, retry := l.Allow("tenant-a", 1, 3)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if retry != time.Second {
		t.Fatalf("Retry-After = %v, want 1s (empty bucket, 1 token/s)", retry)
	}
}

func TestRefillRestoresService(t *testing.T) {
	clk := newFakeClock()
	l := New(clk.now)
	for i := 0; i < 2; i++ {
		l.Allow("k", 2, 2) // drain: 2 tokens/sec, burst 2
	}
	if ok, _ := l.Allow("k", 2, 2); ok {
		t.Fatal("drained bucket allowed a request")
	}
	clk.advance(500 * time.Millisecond) // refills one token at 2/sec
	if ok, _ := l.Allow("k", 2, 2); !ok {
		t.Fatal("bucket not refilled after advance")
	}
	if ok, _ := l.Allow("k", 2, 2); ok {
		t.Fatal("only one token should have refilled")
	}
}

func TestRetryAfterRoundsUp(t *testing.T) {
	clk := newFakeClock()
	l := New(clk.now)
	// rate 0.4/sec, burst 1: after the burst the deficit of one token
	// takes 2.5s to refill — the header must say 3, never 2.
	l.Allow("k", 0.4, 1)
	ok, retry := l.Allow("k", 0.4, 1)
	if ok {
		t.Fatal("second request allowed")
	}
	if retry != 3*time.Second {
		t.Fatalf("Retry-After = %v, want 3s (2.5s deficit rounded up)", retry)
	}
	// And the promise must hold: after waiting that long, service is
	// restored.
	clk.advance(3 * time.Second)
	if ok, _ := l.Allow("k", 0.4, 1); !ok {
		t.Fatal("request refused after honoring Retry-After")
	}
}

func TestKeysAreIndependent(t *testing.T) {
	clk := newFakeClock()
	l := New(clk.now)
	l.Allow("a", 1, 1)
	if ok, _ := l.Allow("a", 1, 1); ok {
		t.Fatal("a's bucket should be empty")
	}
	if ok, _ := l.Allow("b", 1, 1); !ok {
		t.Fatal("b throttled by a's traffic")
	}
}

func TestUnlimited(t *testing.T) {
	l := New(newFakeClock().now)
	for i := 0; i < 1000; i++ {
		if ok, _ := l.Allow("k", 0, 0); !ok {
			t.Fatal("unlimited key refused")
		}
	}
	if len(l.buckets) != 0 {
		t.Fatalf("unlimited traffic created %d buckets, want 0", len(l.buckets))
	}
}

func TestIdleEviction(t *testing.T) {
	clk := newFakeClock()
	l := New(clk.now)
	for _, k := range []string{"a", "b", "c"} {
		l.Allow(k, 1, 5)
	}
	if len(l.buckets) != 3 {
		t.Fatalf("Len = %d, want 3", len(l.buckets))
	}
	// a stays warm; b and c go idle past the 10m horizon.
	step := DefaultIdleAfter * 2 / 3
	clk.advance(step)
	l.Allow("a", 1, 5)
	if len(l.buckets) != 3 {
		t.Fatalf("Len = %d before the idle horizon, want 3", len(l.buckets))
	}
	clk.advance(step)
	l.Allow("a", 1, 5) // triggers the sweep: b and c are 13m20s idle
	if len(l.buckets) != 1 {
		t.Fatalf("Len = %d after idle horizon, want 1 (only the warm key)", len(l.buckets))
	}
	if _, held := l.buckets["a"]; !held {
		t.Fatal("warm bucket evicted")
	}
	// An evicted key restarts with a full bucket — eviction is generous.
	if ok, _ := l.Allow("b", 1, 5); !ok {
		t.Fatal("evicted key refused on return")
	}
}

func TestConcurrentAllow(t *testing.T) {
	clk := newFakeClock()
	l := New(clk.now)
	var wg sync.WaitGroup
	allowed := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if ok, _ := l.Allow("shared", 1, 50); ok {
					allowed[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range allowed {
		total += n
	}
	// Frozen clock: exactly the burst passes, no matter the contention.
	if total != 50 {
		t.Fatalf("allowed %d requests under a frozen clock, want exactly burst=50", total)
	}
}

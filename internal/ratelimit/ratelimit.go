// Package ratelimit is a keyed token-bucket limiter for the service
// plane: one bucket per key (tenant ID, remote IP), refilled
// continuously at the key's rate, with idle buckets evicted so a churn
// of one-shot clients cannot grow the map without bound.
//
// The clock is injectable, so limiter behavior under bursts, refill and
// eviction is testable without real sleeps.
package ratelimit

import (
	"sync"
	"time"
)

// Limiter is a set of token buckets indexed by string key. The zero
// value is not usable; call New.
type Limiter struct {
	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time
	// lastSweep tracks the previous eviction pass; sweeps run
	// opportunistically during Allow, at most once per DefaultIdleAfter.
	lastSweep time.Time
}

type bucket struct {
	tokens float64   // current fill, <= burst
	last   time.Time // last refill instant
}

// DefaultIdleAfter is the eviction horizon: a bucket untouched for
// this long is forgotten (a forgotten bucket restarts full, so eviction
// can only be generous, never punitive).
const DefaultIdleAfter = 10 * time.Minute

// New returns a limiter evicting buckets idle longer than
// DefaultIdleAfter. now is the clock (nil = time.Now).
func New(now func() time.Time) *Limiter {
	if now == nil {
		now = time.Now
	}
	return &Limiter{buckets: make(map[string]*bucket), now: now, lastSweep: now()}
}

// Allow spends one token from key's bucket, which refills at rate
// tokens/second up to burst. It reports whether the request may
// proceed; when refused, retryAfter is how long until one full token
// has accumulated — the Retry-After a 429 should carry.
//
// rate <= 0 or burst <= 0 means "unlimited": the call is allowed and no
// bucket is created.
func (l *Limiter) Allow(key string, rate float64, burst int) (ok bool, retryAfter time.Duration) {
	if rate <= 0 || burst <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.now()
	l.sweepLocked(t)
	b := l.buckets[key]
	if b == nil {
		b = &bucket{tokens: float64(burst), last: t}
		l.buckets[key] = b
	} else {
		elapsed := t.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens += elapsed * rate
			if b.tokens > float64(burst) {
				b.tokens = float64(burst)
			}
		}
		b.last = t
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Time until the deficit (1 - tokens) refills at rate/sec, rounded
	// up to a whole second so the header is honest ("come back in 0s"
	// invites an immediate second 429).
	deficit := 1 - b.tokens
	retryAfter = time.Duration(deficit / rate * float64(time.Second))
	if rem := retryAfter % time.Second; rem != 0 {
		retryAfter += time.Second - rem
	}
	if retryAfter < time.Second {
		retryAfter = time.Second
	}
	return false, retryAfter
}

// sweepLocked drops buckets untouched for DefaultIdleAfter, at most
// once per DefaultIdleAfter so a hot limiter does not scan the map on
// every request.
func (l *Limiter) sweepLocked(t time.Time) {
	if t.Sub(l.lastSweep) < DefaultIdleAfter {
		return
	}
	l.lastSweep = t
	for key, b := range l.buckets {
		if t.Sub(b.last) >= DefaultIdleAfter {
			delete(l.buckets, key)
		}
	}
}

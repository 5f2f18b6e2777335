// The race detector's instrumentation may allocate, so allocation
// counts hold only without it.

//go:build !race

package metrics

import "testing"

// TestRecordingAllocatesNothing: once a child exists, finding it by its
// label tuple and recording into it allocate nothing — the per-request
// cost of the service's families.
func TestRecordingAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := NewCounterVec(r, "c", "c.", "route", "method", "code")
	h := NewHistogramVec(r, "h", "h.", DurationBuckets, "route")
	route, method, code := "/v1/protect", "POST", "200"
	c.With(route, method, code).Inc()
	h.With(route).Observe(0.1)
	if n := testing.AllocsPerRun(100, func() {
		c.With(route, method, code).Inc()
		h.With(route).Observe(0.1)
	}); n != 0 {
		t.Errorf("recording: %v allocs per call, want 0", n)
	}
}

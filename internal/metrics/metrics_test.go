package metrics

import (
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var sb strings.Builder
	r.Write(&sb)
	return sb.String()
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := NewCounterVec(r, "requests_total", "Requests.", "route")
	v.With("/v1/protect").Add(3)
	v.With("/v1/detect").Inc()
	out := render(r)
	for _, want := range []string{
		"# HELP requests_total Requests.",
		"# TYPE requests_total counter",
		`requests_total{route="/v1/detect"} 1`,
		`requests_total{route="/v1/protect"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMultiCounterVec(t *testing.T) {
	r := NewRegistry()
	v := NewCounterVec(r, "http_requests_total", "HTTP requests.", "route", "method", "code")
	v.With("/v1/protect", "POST", "200").Inc()
	v.With("/v1/protect", "POST", "200").Inc()
	v.With("/v1/protect", "POST", "429").Inc()
	out := render(r)
	if !strings.Contains(out, `http_requests_total{route="/v1/protect",method="POST",code="200"} 2`) {
		t.Errorf("missing 200 sample:\n%s", out)
	}
	if !strings.Contains(out, `http_requests_total{route="/v1/protect",method="POST",code="429"} 1`) {
		t.Errorf("missing 429 sample:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := NewGauge(r, "inflight", "In-flight requests.")
	g.Inc()
	g.Inc()
	g.Dec()
	out := render(r)
	if !strings.Contains(out, "# TYPE inflight gauge") || !strings.Contains(out, "inflight 1\n") {
		t.Errorf("bad gauge output:\n%s", out)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	NewGaugeFunc(r, "jobs", "Jobs by state.", "state", func() map[string]int64 {
		return map[string]int64{"queued": 2, "running": 1}
	})
	out := render(r)
	if !strings.Contains(out, `jobs{state="queued"} 2`) || !strings.Contains(out, `jobs{state="running"} 1`) {
		t.Errorf("bad gauge-func output:\n%s", out)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	h := NewHistogramVec(r, "latency_seconds", "Latency.", []float64{0.1, 1}, "route")
	h.With("/v1/protect").Observe(0.05)
	h.With("/v1/protect").Observe(0.5)
	h.With("/v1/protect").Observe(5)
	out := render(r)
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{route="/v1/protect",le="0.1"} 1`,
		`latency_seconds_bucket{route="/v1/protect",le="1"} 2`,
		`latency_seconds_bucket{route="/v1/protect",le="+Inf"} 3`,
		`latency_seconds_count{route="/v1/protect"} 3`,
		`latency_seconds_sum{route="/v1/protect"} 5.55`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBoundaryLandsInBucket(t *testing.T) {
	// Prometheus buckets are le (<=): a sample exactly on a bound
	// belongs to that bucket.
	r := NewRegistry()
	h := NewHistogramVec(r, "h", "h.", []float64{1}, "l")
	h.With("x").Observe(1)
	out := render(r)
	if !strings.Contains(out, `h_bucket{l="x",le="1"} 1`) {
		t.Errorf("sample on the bound not counted le-style:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := NewCounterVec(r, "c", "c.", "l")
	v.With(`quo"te\slash` + "\n").Inc()
	out := render(r)
	if !strings.Contains(out, `c{l="quo\"te\\slash\n"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	NewCounterVec(r, "dup", "d.", "l")
	defer func() {
		if recover() == nil {
			t.Error("duplicate family did not panic")
		}
	}()
	NewCounterVec(r, "dup", "d.", "l")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := NewCounterVec(r, "c", "c.", "a", "b")
	h := NewHistogramVec(r, "h", "h.", DurationBuckets, "l")
	g := NewGauge(r, "g", "g.")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.With("x", "y").Inc()
				h.With("k").Observe(float64(j) / 100)
				g.Inc()
				render(r)
			}
		}()
	}
	wg.Wait()
	out := render(r)
	if !strings.Contains(out, `c{a="x",b="y"} 4000`) {
		t.Errorf("lost counter increments:\n%s", out)
	}
	if !strings.Contains(out, `h_count{l="k"} 4000`) {
		t.Errorf("lost histogram samples:\n%s", out)
	}
}

// TestHistogramLabelTuple: a histogram family takes the same label
// tuple as a counter family, rendered before the le bound.
func TestHistogramLabelTuple(t *testing.T) {
	r := NewRegistry()
	h := NewHistogramVec(r, "stage_seconds", "Stage time.", []float64{1}, "op", "stage")
	h.With("plan", "search").Observe(0.5)
	h.With("detect", "read").Observe(2)
	want := `# HELP stage_seconds Stage time.
# TYPE stage_seconds histogram
stage_seconds_bucket{op="detect",stage="read",le="1"} 0
stage_seconds_bucket{op="detect",stage="read",le="+Inf"} 1
stage_seconds_sum{op="detect",stage="read"} 2
stage_seconds_count{op="detect",stage="read"} 1
stage_seconds_bucket{op="plan",stage="search",le="1"} 1
stage_seconds_bucket{op="plan",stage="search",le="+Inf"} 1
stage_seconds_sum{op="plan",stage="search"} 0.5
stage_seconds_count{op="plan",stage="search"} 1
`
	if got := render(r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	h.With("plan")
}

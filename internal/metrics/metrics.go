// Package metrics is a minimal, stdlib-only metrics registry exposing
// the Prometheus text format (version 0.0.4). It implements just the
// three instrument kinds the service plane needs — counters, gauges and
// cumulative histograms, counters and histograms split by a tuple of
// labels — rather
// than a general client library: no dependency budget exists for one,
// and the text format is simple enough to emit by hand.
//
// All instruments are safe for concurrent use. Label values are
// expected to come from a bounded set (route patterns, status codes,
// job states) — callers must never feed user-controlled strings as
// label values or the series count grows without bound.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named metric families and renders them in
// name order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []family
	byName   map[string]family
}

type family interface {
	name() string
	write(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]family)}
}

func (r *Registry) register(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name()]; dup {
		panic("metrics: duplicate family " + f.name())
	}
	r.byName[f.name()] = f
	r.families = append(r.families, f)
	sort.Slice(r.families, func(i, j int) bool { return r.families[i].name() < r.families[j].name() })
}

// Write renders every family as Prometheus text exposition format.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.write(w)
	}
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv(f)
}

func strconv(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// ---- counters ----------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64 // value ×1 (integer counts only)
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family split by a fixed tuple of labels
// (e.g. route+method+code).
type CounterVec struct {
	labeled[Counter]
}

// NewCounterVec registers a counter family split by labels.
func NewCounterVec(r *Registry, name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labeled[Counter]{fname: name, help: help, labels: labels, fresh: func() *Counter { return &Counter{} }}}
	r.register(v)
	return v
}

// With returns the child counter for the label-value tuple, creating it
// on first use. The tuple's arity is set at construction, and With
// panics on a mismatch — a programming error, not a runtime state.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

func (v *CounterVec) write(w io.Writer) {
	pairs, children := v.sorted()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.fname, v.help, v.fname)
	for i, c := range children {
		fmt.Fprintf(w, "%s{%s} %d\n", v.fname, pairs[i], c.Value())
	}
}

// labeled holds one family's children, keyed by their label-value
// tuple; CounterVec and HistogramVec share it.
type labeled[T any] struct {
	fname, help string
	labels      []string
	fresh       func() *T
	mu          sync.Mutex
	children    map[string]*T // key: label values joined by \x00
}

func (l *labeled[T]) name() string { return l.fname }

// with returns the child for values, creating it on first use. The
// lookup key is built in a stack buffer, so finding an existing child
// allocates nothing.
func (l *labeled[T]) with(values []string) *T {
	if len(values) != len(l.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", l.fname, len(l.labels), len(values)))
	}
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.children[string(key)]
	if c == nil {
		if l.children == nil {
			l.children = make(map[string]*T)
		}
		c = l.fresh()
		l.children[string(key)] = c
	}
	return c
}

// sorted returns the children in key order, each with its rendered
// label pairs (name="value",...).
func (l *labeled[T]) sorted() (pairs []string, children []*T) {
	l.mu.Lock()
	keys := make([]string, 0, len(l.children))
	for k := range l.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children = make([]*T, len(keys))
	for i, k := range keys {
		children[i] = l.children[k]
	}
	l.mu.Unlock()
	pairs = make([]string, len(keys))
	for i, key := range keys {
		var sb strings.Builder
		for j, v := range strings.Split(key, "\x00") {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s=\"%s\"", l.labels[j], escapeLabel(v))
		}
		pairs[i] = sb.String()
	}
	return pairs, children
}

// ---- gauges ------------------------------------------------------------

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc()         { g.v.Add(1) }
func (g *Gauge) Dec()         { g.v.Add(-1) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// NewGauge registers an unlabeled gauge.
func NewGauge(r *Registry, name, help string) *Gauge {
	g := &Gauge{}
	r.register(&gaugeFamily{fname: name, help: help, g: g})
	return g
}

type gaugeFamily struct {
	fname, help string
	g           *Gauge
}

func (f *gaugeFamily) name() string { return f.fname }

func (f *gaugeFamily) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", f.fname, f.help, f.fname, f.fname, f.g.Value())
}

// GaugeFunc is a gauge family whose samples are computed at scrape time
// — used for job-state counts, which live in the job manager, not here.
type GaugeFunc struct {
	fname, help, label string
	fn                 func() map[string]int64
}

// NewGaugeFunc registers a labeled gauge computed by fn at scrape time.
// fn must be safe for concurrent use.
func NewGaugeFunc(r *Registry, name, help, label string, fn func() map[string]int64) {
	r.register(&GaugeFunc{fname: name, help: help, label: label, fn: fn})
}

func (f *GaugeFunc) name() string { return f.fname }

func (f *GaugeFunc) write(w io.Writer) {
	samples := f.fn()
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", f.fname, f.help, f.fname)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", f.fname, f.label, escapeLabel(k), samples[k])
	}
}

// ---- histograms --------------------------------------------------------

// DurationBuckets is the default latency bucket ladder in seconds,
// spanning the service's range from sub-10ms cache-warm requests to the
// 60s request timeout.
var DurationBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// HistogramVec is a cumulative histogram family split by a fixed tuple
// of labels, like CounterVec.
type HistogramVec struct {
	labeled[Histogram]
	bounds []float64
}

// Histogram is one child of a HistogramVec.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // per-bucket (non-cumulative) observation counts
	sum    float64
	total  uint64
}

// NewHistogramVec registers a histogram family split by labels, with
// the given upper bounds (ascending; +Inf is implicit).
func NewHistogramVec(r *Registry, name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{bounds: append([]float64(nil), bounds...)}
	v.labeled = labeled[Histogram]{fname: name, help: help, labels: labels, fresh: func() *Histogram {
		return &Histogram{bounds: v.bounds, counts: make([]uint64, len(v.bounds)+1)}
	}}
	r.register(v)
	return v
}

// With returns the child histogram for the label-value tuple, creating
// it on first use; it panics on an arity mismatch, as CounterVec.With.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

// Observe records one sample.
func (h *Histogram) Observe(sample float64) {
	idx := sort.SearchFloat64s(h.bounds, sample)
	h.mu.Lock()
	h.counts[idx]++
	h.sum += sample
	h.total++
	h.mu.Unlock()
}

func (v *HistogramVec) write(w io.Writer) {
	pairs, children := v.sorted()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.fname, v.help, v.fname)
	for i, h := range children {
		h.mu.Lock()
		counts := append([]uint64(nil), h.counts...)
		sum, total := h.sum, h.total
		h.mu.Unlock()
		var cum uint64
		for j, bound := range v.bounds {
			cum += counts[j]
			fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n", v.fname, pairs[i], formatFloat(bound), cum)
		}
		cum += counts[len(v.bounds)]
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", v.fname, pairs[i], cum)
		fmt.Fprintf(w, "%s_sum{%s} %s\n", v.fname, pairs[i], strconv(sum))
		fmt.Fprintf(w, "%s_count{%s} %d\n", v.fname, pairs[i], total)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heapAllocs returns the process's cumulative heap allocation count.
// ReadMemStats stops the world and flushes every P's cache, so the count
// is exact at the call — the property per-call deltas need.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// startRSSPeak collects garbage left by set-up, so it does not count,
// and resets the kernel's resident-set high-water mark (VmHWM); peakRSSMiB
// reads it at the end of the timed region.
func startRSSPeak() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

func peakRSSMiB() (float64, error) {
	kib, ok := procStatusKiB("VmHWM")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	return float64(kib) / 1024, nil
}

// procStatusKiB reads one "Name: <n> kB" field of /proc/self/status.
func procStatusKiB(field string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		return n, err == nil
	}
	return 0, false
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified), 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced call into a layer, recorded from outside the
// program: the benchmark times the public function it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Allocs uint64 `json:"allocs"`
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	dur    time.Duration
	allocs uint64
	calls  int
}

// tracer keeps spans in memory; write saves them when the run ends.
// Spans nest: begin opens a span for a replayed core call, and call
// records a layer call as a child of the innermost open span. A tracer
// that counts allocations stops the world at every span boundary, which
// slows calls on small segments; a replay can run once to time its spans
// and once more to count them.
type tracer struct {
	t0          time.Time
	countAllocs bool
	spans       []span
	open        []int
	totals      map[string]*layerTotal
}

func newTracer(countAllocs bool) *tracer {
	return &tracer{t0: time.Now(), countAllocs: countAllocs, totals: make(map[string]*layerTotal)}
}

func (t *tracer) heapAllocs() uint64 {
	if !t.countAllocs {
		return 0
	}
	return heapAllocs()
}

func (t *tracer) parent() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// begin opens a span and returns its ID for end.
func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name,
		Start: time.Since(t.t0).Nanoseconds(), Allocs: t.heapAllocs()})
	t.open = append(t.open, id)
	return id
}

// end closes span id (the innermost open one) and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.Dur = time.Since(t.t0).Nanoseconds() - s.Start
	s.Allocs = t.heapAllocs() - s.Allocs
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.Dur)
}

// childDur sums the durations of span id's direct children.
func (t *tracer) childDur(id int) time.Duration {
	var d int64
	for _, s := range t.spans[id+1:] {
		if s.Parent == id {
			d += s.Dur
		}
	}
	return time.Duration(d)
}

// call runs fn as one span of layer name.
func (t *tracer) call(name string, fn func() error) error {
	parent := t.parent()
	a0 := t.heapAllocs()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	allocs := t.heapAllocs() - a0
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: d.Nanoseconds(), Allocs: allocs})
	lt := t.totals[name]
	if lt == nil {
		lt = &layerTotal{}
		t.totals[name] = lt
	}
	lt.dur += d
	lt.allocs += allocs
	lt.calls++
	return err
}

// total returns the summed layer totals of name (zero when never called).
func (t *tracer) total(name string) layerTotal {
	if lt := t.totals[name]; lt != nil {
		return *lt
	}
	return layerTotal{}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perRow divides a count by a row count, 0 when no rows were seen.
func perRow(n uint64, rows int) float64 {
	if rows == 0 {
		return 0
	}
	return float64(n) / float64(rows)
}

// check records a failed correctness check and returns ok.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

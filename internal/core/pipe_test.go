package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/ontology"
	"repro/internal/relation"
)

var (
	errSource = errors.New("source failed")
	errSink   = errors.New("sink failed")
)

// recordingSource wraps a segment source and records how the pipeline
// calls it: calls that overlap another call, and calls made after the
// stream call returned. failAt > 0 makes the failAt-th call (1-based)
// fail with errSource; onCall, when set, runs at the start of each call
// with its number.
type recordingSource struct {
	src        Segments
	failAt     int
	onCall     func(n int)
	calls      atomic.Int32
	inFlight   atomic.Int32
	concurrent atomic.Bool
	returned   atomic.Bool
	late       atomic.Int32
}

func (r *recordingSource) Schema() *relation.Schema { return r.src.Schema() }

func (r *recordingSource) Next() (*relation.Table, error) {
	if r.inFlight.Add(1) > 1 {
		r.concurrent.Store(true)
	}
	defer r.inFlight.Add(-1)
	if r.returned.Load() {
		r.late.Add(1)
	}
	n := int(r.calls.Add(1))
	if r.onCall != nil {
		r.onCall(n)
	}
	runtime.Gosched() // widen the window for an overlapping call
	if n == r.failAt {
		return nil, fmt.Errorf("segment %d: %w", n, errSource)
	}
	return r.src.Next()
}

// recordingWriter is one output writer; the writers of one run share
// inFlight, so it also catches two sinks running at once. failAt > 0
// makes the failAt-th Write (1-based) fail with errSink.
type recordingWriter struct {
	failAt     int
	writes     int
	inFlight   *atomic.Int32
	concurrent *atomic.Bool
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if w.inFlight.Add(1) > 1 {
		w.concurrent.Store(true)
	}
	defer w.inFlight.Add(-1)
	runtime.Gosched()
	w.writes++
	if w.writes == w.failAt {
		return 0, fmt.Errorf("write %d: %w", w.writes, errSink)
	}
	return len(p), nil
}

// checkPipeline runs one stream call over src and checks the pipeline's
// contract: the call returns an error matching want (nil for success),
// Next never overlapped itself nor ran after the call returned, and no
// goroutine the call started outlives it.
func checkPipeline(t *testing.T, src *recordingSource, want error, call func() error) {
	t.Helper()
	base := runtime.NumGoroutine()
	err := call()
	src.returned.Store(true)
	switch {
	case want == nil && err != nil:
		t.Fatalf("err = %v, want success", err)
	case want != nil && !errors.Is(err, want):
		t.Fatalf("err = %v, want %v", err, want)
	}
	settle(t, base)
	if src.concurrent.Load() {
		t.Error("Next ran concurrently with itself")
	}
	if n := src.late.Load(); n > 0 {
		t.Errorf("Next called %d time(s) after the stream call returned", n)
	}
}

// settle waits for the goroutine count to fall back to base: every
// goroutine a stream call starts must be joined before it returns, so
// any excess is a leak (or a test's own goroutine still unwinding,
// hence the polling).
func settle(t *testing.T, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 500 && n > base; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutine(s) outlived the stream call:\n%s", n-base, buf[:runtime.Stack(buf, true)])
	}
}

// pipeFixture plans and applies a 1200-row table; the stream calls
// below read it (or its protected copy) in 100-row segments.
func pipeFixture(t *testing.T) (*Framework, *relation.Table, *Plan, *Protected, crypt.WatermarkKey) {
	t.Helper()
	fw := testFramework(t)
	tbl := testData(t, 1200)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ApplyContext(context.Background(), tbl, plan, key)
	if err != nil {
		t.Fatal(err)
	}
	return fw, tbl, plan, prot, key
}

// TestPipelineWriteFailures drives the write loop's failure paths: a
// sink failing on its Nth write, a source failing at segment N, both at
// once in either order (the earlier segment's error wins), and a
// success for reference.
func TestPipelineWriteFailures(t *testing.T) {
	fw, tbl, plan, _, key := pipeFixture(t)
	for _, tc := range []struct {
		name          string
		failSrc, sink int // 1-based Next call / Write call to fail; 0: none
		want          error
	}{
		{"success", 0, 0, nil},
		{"sink fails first write", 0, 1, errSink},
		{"sink fails fifth write", 0, 5, errSink},
		{"source fails first segment", 1, 0, errSource},
		{"source fails sixth segment", 6, 0, errSource},
		{"source fails after the last segment", 13, 0, errSource},
		// Write k carries segment k, which precedes segment k+1.
		{"sink on segment 4 before source on segment 5", 5, 4, errSink},
		{"source on segment 4 before sink on segment 5", 4, 5, errSource},
		{"sink on segment 3 long before source on segment 9", 9, 3, errSink},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &recordingSource{src: tbl.Segments(100), failAt: tc.failSrc}
			var inFlight atomic.Int32
			var concurrent atomic.Bool
			out := &recordingWriter{failAt: tc.sink, inFlight: &inFlight, concurrent: &concurrent}
			checkPipeline(t, src, tc.want, func() error {
				_, err := fw.ApplyStream(context.Background(), src, plan, key, out)
				return err
			})
			if concurrent.Load() {
				t.Error("the sink ran concurrently with itself")
			}
		})
	}
}

// TestPipelineFingerprintSinksSerial checks that the sinks of several
// outputs run one at a time, and that a recipient writer failing on its
// third segment stops the run with its error.
func TestPipelineFingerprintSinksSerial(t *testing.T) {
	fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Chunk: 100})
	if err != nil {
		t.Fatal(err)
	}
	tbl := testData(t, 1200)
	recipients := []Recipient{
		{ID: "a", Key: crypt.RecipientWatermarkKey(tracebackSecret, "a", 20)},
		{ID: "b", Key: crypt.RecipientWatermarkKey(tracebackSecret, "b", 20)},
		{ID: "c", Key: crypt.RecipientWatermarkKey(tracebackSecret, "c", 20)},
	}
	for _, failB := range []int{0, 3} {
		var inFlight atomic.Int32
		var concurrent atomic.Bool
		outs := make([]io.Writer, len(recipients))
		for i := range outs {
			w := &recordingWriter{inFlight: &inFlight, concurrent: &concurrent}
			if i == 1 {
				w.failAt = failB
			}
			outs[i] = w
		}
		base := runtime.NumGoroutine()
		_, err := fw.FingerprintStream(context.Background(), tbl, recipients, outs)
		if failB == 0 && err != nil {
			t.Fatal(err)
		}
		if failB > 0 && !errors.Is(err, errSink) {
			t.Fatalf("err = %v, want %v", err, errSink)
		}
		settle(t, base)
		if concurrent.Load() {
			t.Errorf("failB=%d: two sinks ran at once", failB)
		}
	}
}

// TestPipelineReadFailures drives the plan and read loops over a source
// that fails at segment N.
func TestPipelineReadFailures(t *testing.T) {
	fw, tbl, _, prot, key := pipeFixture(t)
	cands := []Candidate{{ID: "owner", Provenance: prot.Provenance, Key: key}}
	for _, failAt := range []int{1, 3, 13} {
		t.Run(fmt.Sprintf("plan/segment %d", failAt), func(t *testing.T) {
			src := &recordingSource{src: tbl.Segments(100), failAt: failAt}
			checkPipeline(t, src, errSource, func() error {
				_, err := fw.PlanStream(context.Background(), src, key)
				return err
			})
		})
		t.Run(fmt.Sprintf("detect/segment %d", failAt), func(t *testing.T) {
			src := &recordingSource{src: prot.Table.Segments(100), failAt: failAt}
			checkPipeline(t, src, errSource, func() error {
				_, err := fw.DetectStream(context.Background(), src, prot.Provenance, key)
				return err
			})
		})
		t.Run(fmt.Sprintf("traceback/segment %d", failAt), func(t *testing.T) {
			src := &recordingSource{src: prot.Table.Segments(100), failAt: failAt}
			checkPipeline(t, src, errSource, func() error {
				_, err := fw.TracebackStream(context.Background(), src, cands)
				return err
			})
		})
	}
	t.Run("traceback/success", func(t *testing.T) {
		src := &recordingSource{src: prot.Table.Segments(100)}
		checkPipeline(t, src, nil, func() error {
			_, err := fw.TracebackStream(context.Background(), src, cands)
			return err
		})
	})
}

// TestPipelineCancelMidStream cancels the context from inside the
// source at its fourth segment: every loop must stop with
// context.Canceled and join its helpers.
func TestPipelineCancelMidStream(t *testing.T) {
	fw, tbl, plan, prot, key := pipeFixture(t)
	cands := []Candidate{{ID: "owner", Provenance: prot.Provenance, Key: key}}
	for name, run := range map[string]func(context.Context, Segments) error{
		"apply": func(ctx context.Context, src Segments) error {
			_, err := fw.ApplyStream(ctx, src, plan, key, io.Discard)
			return err
		},
		"plan": func(ctx context.Context, src Segments) error {
			_, err := fw.PlanStream(ctx, src, key)
			return err
		},
		"detect": func(ctx context.Context, src Segments) error {
			_, err := fw.DetectStream(ctx, src, prot.Provenance, key)
			return err
		},
		"traceback": func(ctx context.Context, src Segments) error {
			_, err := fw.TracebackStream(ctx, src, cands)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			table := tbl
			if name == "detect" || name == "traceback" {
				table = prot.Table
			}
			src := &recordingSource{src: table.Segments(100), onCall: func(n int) {
				if n == 4 {
					cancel()
				}
			}}
			checkPipeline(t, src, context.Canceled, func() error { return run(ctx, src) })
		})
	}
}

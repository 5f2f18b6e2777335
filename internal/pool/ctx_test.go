package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCtxPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		err := ForEachCtx(ctx, workers, 100, func(i int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if calls.Load() != 0 {
			t.Fatalf("workers=%d: %d calls ran under a pre-cancelled ctx", workers, calls.Load())
		}
	}
}

func TestForEachCtxMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := ForEachCtx(ctx, 4, 10_000, func(i int) error {
		if calls.Add(1) == 8 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 10_000 {
		t.Fatalf("cancellation did not stop dispatch: all %d indices ran", n)
	}
}

func TestForEachCtxFnErrorWinsOverCancel(t *testing.T) {
	// A recorded fn failure takes precedence over the context error, so
	// callers keep the deterministic lowest-index error.
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachCtx(ctx, 2, 50, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want fn error to win", err)
	}
}

func TestForEachChunkCtxPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		err := ForEachChunkCtx(ctx, workers, 1000, func(si, lo, hi int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if calls.Load() != 0 {
			t.Fatalf("workers=%d: %d chunks ran under a pre-cancelled ctx", workers, calls.Load())
		}
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 4, 10, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", out, err)
	}
}

func TestCtxAt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := CtxAt(ctx, 0); err != nil {
		t.Fatalf("live ctx at stride boundary: %v", err)
	}
	cancel()
	if err := CtxAt(ctx, 1); err != nil {
		t.Fatalf("off-stride index must not poll: %v", err)
	}
	if err := CtxAt(ctx, CtxStride); !errors.Is(err, context.Canceled) {
		t.Fatalf("stride boundary after cancel: got %v", err)
	}
}

func TestCtxVariantsMatchPlainOnBackground(t *testing.T) {
	// The plain helpers delegate to the ctx forms with Background; a
	// completed run must never surface a non-nil error from the ctx path.
	if err := ForEachCtx(context.Background(), 4, 100, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachChunkCtx(context.Background(), 4, 100, func(si, lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := MapCtx(context.Background(), 4, 100, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
}

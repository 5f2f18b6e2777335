// Package pool is the concurrency substrate of the protection pipeline:
// a bounded worker pool with deterministic, ordered fan-in. Every hot
// path (binning candidate search, watermark embedding/detection,
// experiment sweeps) distributes index-addressed work across a fixed
// number of goroutines and merges results *by index*, so the outcome is
// byte-identical to a sequential run regardless of the worker count or
// goroutine scheduling.
//
// The determinism contract every helper upholds:
//
//   - results are keyed by input index and merged in index order;
//   - when several indices fail, the error reported is the one the
//     sequential loop would have hit first (lowest index / lowest chunk);
//   - worker count only changes wall-clock time, never output.
//
// Every helper (ForEachCtx, ForEachChunkCtx, MapCtx) takes a context,
// stops dispatching new work once it is done and returns its error. Cancellation is inherently racy — which
// indices had already started is scheduler-dependent — so the
// determinism contract applies to runs that complete without
// cancellation; a cancelled run deterministically reports the
// cancellation cause (unless a lower-indexed fn failure had already been
// recorded, which wins as usual).
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a configured worker count to the effective one: n when
// positive, GOMAXPROCS when n <= 0 (the "0 = all cores" convention of
// core.Config.Workers).
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachCtx runs fn(i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS). Indices are dispatched
// dynamically, so uneven per-index cost still balances. If any calls
// fail, the error of the lowest failing index is returned — the same
// error a sequential loop would have surfaced first.
//
// With workers resolved to 1 the loop runs inline on the caller's
// goroutine and stops at the first error, exactly like a plain for loop.
//
// No new index is dispatched once ctx is done, and the context error is
// returned after in-flight calls drain — unless an fn call failed, in
// which case the lowest failing index's error wins. A context that is
// already done returns immediately without calling fn at all.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if failed.Load() {
					// A lower or equal index may already have failed; keep
					// draining cheaply. Correctness does not depend on this
					// check — it only short-circuits doomed work — because
					// every index below a recorded failure has either run
					// or is running.
					mu.Lock()
					skip := i > firstIdx
					mu.Unlock()
					if skip {
						continue
					}
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Chunk is a contiguous index range [Lo, Hi).
type Chunk struct{ Lo, Hi int }

// Chunks splits [0, n) into at most workers contiguous, balanced,
// non-empty ranges in ascending order. The split depends only on
// (workers, n), so shard-then-merge pipelines built on it are
// reproducible.
func Chunks(workers, n int) []Chunk {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	out := make([]Chunk, 0, workers)
	base, rem := n/workers, n%workers
	lo := 0
	for i := 0; i < workers; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Chunk{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// ForEachChunkCtx shards [0, n) with Chunks and runs fn(shard, lo, hi)
// for every shard concurrently; shard is the chunk's index, for callers
// that keep per-shard accumulators to merge in shard order afterwards.
// Error selection is deterministic: the error of the lowest-indexed
// failing chunk wins, which — for callers that scan their chunk in
// ascending order and stop at the first failure — is exactly the error
// a sequential [0, n) loop would have returned.
//
// A context that is already done returns its error before any chunk
// runs. Because one
// chunk can cover a large index range, long-running fn bodies should
// additionally poll ctx at row-batch boundaries (see CtxStride) to abort
// mid-chunk; ForEachChunkCtx itself only gates chunk dispatch. After all
// chunks drain, a chunk error (lowest shard first) wins over the
// context error.
func ForEachChunkCtx(ctx context.Context, workers, n int, fn func(shard, lo, hi int) error) error {
	chunks := Chunks(workers, n)
	if len(chunks) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(chunks) == 1 {
		return fn(0, chunks[0].Lo, chunks[0].Hi)
	}
	errs := make([]error, len(chunks))
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(len(chunks))
	for ci, c := range chunks {
		go func() {
			defer wg.Done()
			select {
			case <-done:
				errs[ci] = ctx.Err()
				return
			default:
			}
			errs[ci] = fn(ci, c.Lo, c.Hi)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// CtxStride is the row-batch size at which chunked scans poll their
// context: fn bodies iterating a [lo, hi) range check ctx.Err() every
// CtxStride rows, so cancellation aborts a chunk in bounded time without
// putting a branch-heavy check in the per-row hot path.
const CtxStride = 1024

// CtxAt polls ctx at CtxStride boundaries: it returns ctx.Err() when i
// is a multiple of CtxStride (and always at i itself when ctx is nil-safe
// to skip). Callers write
//
//	if err := pool.CtxAt(ctx, row-lo); err != nil { return err }
//
// at the top of their row loop.
func CtxAt(ctx context.Context, i int) error {
	if i%CtxStride != 0 {
		return nil
	}
	return ctx.Err()
}

// MapCtx computes out[i] = fn(i) for i in [0, n) on at most workers
// goroutines, returning the results in input order. It stops
// dispatching on cancellation; on failure it returns the context error
// or the lowest failing index's error, and no results.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

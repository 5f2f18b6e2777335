package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Fatalf("Resolve(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Resolve(0); got != want {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Resolve(-5); got != want {
		t.Fatalf("Resolve(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 1000
		hits := make([]atomic.Int32, n)
		if err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForEachCtx(context.Background(), workers, 500, func(i int) error {
			if i%100 == 37 { // fails at 37, 137, 237, ...
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail@37" {
			t.Fatalf("workers=%d: got %v, want fail@37", workers, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestChunksPartition(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 10}, {3, 10}, {4, 4}, {8, 3}, {16, 1000}, {5, 0},
	} {
		chunks := Chunks(tc.workers, tc.n)
		if tc.n == 0 {
			if chunks != nil {
				t.Fatalf("Chunks(%d, 0) = %v, want nil", tc.workers, chunks)
			}
			continue
		}
		next := 0
		for _, c := range chunks {
			if c.Lo != next || c.Hi <= c.Lo {
				t.Fatalf("Chunks(%d, %d): bad chunk %+v at offset %d", tc.workers, tc.n, c, next)
			}
			next = c.Hi
		}
		if next != tc.n {
			t.Fatalf("Chunks(%d, %d) covers [0, %d)", tc.workers, tc.n, next)
		}
		if len(chunks) > tc.workers {
			t.Fatalf("Chunks(%d, %d) produced %d chunks", tc.workers, tc.n, len(chunks))
		}
	}
}

func TestForEachChunkLowestChunkErrorWins(t *testing.T) {
	// Chunks 1 and 3 fail; the chunk-1 error must win for every worker
	// count that yields at least 4 chunks.
	err := ForEachChunkCtx(context.Background(), 4, 400, func(shard, lo, hi int) error {
		if shard != lo/100 {
			return fmt.Errorf("shard %d does not match range [%d,%d)", shard, lo, hi)
		}
		switch shard {
		case 1:
			return errors.New("chunk1")
		case 3:
			return errors.New("chunk3")
		}
		return nil
	})
	if err == nil || err.Error() != "chunk1" {
		t.Fatalf("got %v, want chunk1", err)
	}
}

func TestForEachChunkCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 777
		seen := make([]atomic.Int32, n)
		if err := ForEachChunkCtx(context.Background(), workers, n, func(shard, lo, hi int) error {
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, seen[i].Load())
			}
		}
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		out, err := MapCtx(context.Background(), workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := MapCtx(context.Background(), 8, 100, func(i int) (int, error) {
		if i >= 40 {
			return 0, fmt.Errorf("fail@%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail@40" {
		t.Fatalf("got %v, want fail@40", err)
	}
	if out != nil {
		t.Fatalf("expected nil results on error, got %v", out)
	}
}

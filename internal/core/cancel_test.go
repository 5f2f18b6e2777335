package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/ontology"
)

// TestProtectContextPreCancelled is the request-scoped API's promptness
// contract: a Protect on a 20k-row table under an already-cancelled
// context must return context.Canceled before doing the heavy pipeline
// work, for both the sequential and the fanned-out worker configuration.
func TestProtectContextPreCancelled(t *testing.T) {
	tbl := testData(t, 20_000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	for _, workers := range []int{1, 8} {
		fw, err := New(ontology.Trees(), Config{K: 20, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		prot, err := fw.ProtectContext(ctx, tbl, key)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got (%v, %v), want context.Canceled", workers, prot, err)
		}
		// An uncancelled 20k-row Protect takes seconds; a pre-cancelled
		// one must return in a small fraction of that.
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("workers=%d: cancelled Protect took %v", workers, elapsed)
		}
	}
}

func TestProtectContextMidRunCancel(t *testing.T) {
	tbl := testData(t, 20_000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	fw, err := New(ontology.Trees(), Config{K: 20, AutoEpsilon: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := fw.ProtectContext(ctx, tbl, key); !errors.Is(err, context.Canceled) {
		// The pipeline may legitimately finish before the timer fires on
		// a fast machine — but then err must be nil, not something else.
		if err != nil {
			t.Fatalf("mid-run cancel surfaced unexpected error: %v", err)
		}
	}
}

func TestDetectContextPreCancelled(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 2_000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.DetectContext(ctx, prot.Table, prot.Provenance, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := fw.DisputeContext(ctx, prot.Table, prot.Provenance, key, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("dispute: got %v, want context.Canceled", err)
	}
}

// TestContextFormsMatchPlain pins the wrapper contract: the plain
// signatures are the Background-context forms, byte-identical results
// included.
func TestContextFormsMatchPlain(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 1_500)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	plain, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Provenance.Mark != ctxed.Provenance.Mark {
		t.Fatal("ProtectContext(Background) diverged from Protect")
	}
	for i := 0; i < plain.Table.NumRows(); i++ {
		for c := 0; c < plain.Table.Schema().NumColumns(); c++ {
			if plain.Table.CellAt(i, c) != ctxed.Table.CellAt(i, c) {
				t.Fatalf("cell (%d,%d) diverged", i, c)
			}
		}
	}
	det, err := fw.DetectContext(context.Background(), ctxed.Table, ctxed.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Fatal("DetectContext missed the mark on a clean table")
	}
}

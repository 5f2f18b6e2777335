package watermark

import (
	"context"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/relation"
)

// workerCounts is the determinism matrix required for the concurrent
// pipeline: sequential, a divisor-free shard count, and heavy sharding.
var workerCounts = []int{1, 2, 8}

func tablesIdentical(t *testing.T, a, b *relation.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	nc := a.Schema().NumColumns()
	for i := 0; i < a.NumRows(); i++ {
		for c := 0; c < nc; c++ {
			if a.CellAt(i, c) != b.CellAt(i, c) {
				t.Fatalf("cell (%d,%d) differs: %q vs %q", i, c, a.CellAt(i, c), b.CellAt(i, c))
			}
		}
	}
}

func TestEmbedParallelDeterminism(t *testing.T) {
	f := newFixture(t, 3000, 5)
	var base *relation.Table
	var baseStats EmbedStats
	for _, w := range workerCounts {
		p := f.params
		p.Workers = w
		marked := f.tbl.Clone()
		stats, err := EmbedContext(context.Background(), marked, "ssn", f.columns, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if base == nil {
			base, baseStats = marked, stats
			if stats.BitsEmbedded == 0 {
				t.Fatal("fixture has no bandwidth; determinism test is vacuous")
			}
			continue
		}
		tablesIdentical(t, base, marked)
		if stats != baseStats {
			t.Errorf("workers=%d: stats %+v differ from sequential %+v", w, stats, baseStats)
		}
	}
}

func TestDetectParallelDeterminism(t *testing.T) {
	f := newFixture(t, 3000, 5)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	var base DetectResult
	for i, w := range workerCounts {
		p := f.params
		p.Workers = w
		res, err := detect(marked, "ssn", f.columns, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			base = res
			if loss, err := f.params.Mark.LossFraction(res.Mark); err != nil || loss != 0 {
				t.Fatalf("sequential detection lossy: loss=%v err=%v", loss, err)
			}
			continue
		}
		if res.Mark.String() != base.Mark.String() {
			t.Errorf("workers=%d: mark %s differs from sequential %s", w, res.Mark, base.Mark)
		}
		if res.Stats != base.Stats {
			t.Errorf("workers=%d: stats %+v differ from sequential %+v", w, res.Stats, base.Stats)
		}
		if len(res.Confidence) != len(base.Confidence) {
			t.Fatalf("workers=%d: confidence length %d vs %d", w, len(res.Confidence), len(base.Confidence))
		}
		for pos := range res.Confidence {
			if res.Confidence[pos] != base.Confidence[pos] {
				t.Errorf("workers=%d: confidence[%d] = %v, sequential %v", w, pos, res.Confidence[pos], base.Confidence[pos])
			}
		}
	}
}

// TestDetectParallelDeterminismWeighted exercises the weighted-voting
// accumulation, whose level weights are integer-valued floats — the
// property that makes sharded merging exact.
func TestDetectParallelDeterminismWeighted(t *testing.T) {
	f := newFixture(t, 2000, 3)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	var base bitstr.Bits
	for i, w := range workerCounts {
		p := f.params
		p.Workers = w
		p.WeightedVoting = true
		res, err := detect(marked, "ssn", f.columns, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			base = res.Mark
			continue
		}
		if res.Mark.String() != base.String() {
			t.Errorf("workers=%d: weighted mark %s differs from sequential %s", w, res.Mark, base)
		}
	}
}

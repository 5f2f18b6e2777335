package binning

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// ascent is the outcome of one greedy lattice ascent.
type ascent struct {
	gens  map[string]dht.GenSet
	stats MultiStats
	err   error
}

// greedyBoth runs the incremental and the rescan ascent on the same
// weighted positions and returns both outcomes.
func greedyBoth(cols []string, ming, maxg map[string]dht.GenSet, k, workers int, leaves [][]dht.NodeID, weights []int) (inc, ref ascent) {
	ctx := context.Background()
	var s1, s2 MultiStats
	inc.gens, inc.stats, inc.err = multiGreedy(ctx, cols, ming, maxg, k, workers, leaves, weights, &s1)
	ref.gens, ref.stats, ref.err = multiGreedyRescan(ctx, cols, ming, maxg, k, workers, leaves, weights, &s2)
	return inc, ref
}

// sameAscent reports how two ascents differ: verdict, error text,
// frontiers or merge count.
func sameAscent(a, b ascent) error {
	if (a.err == nil) != (b.err == nil) {
		return fmt.Errorf("verdicts differ: %v vs %v", a.err, b.err)
	}
	if a.err != nil {
		if a.err.Error() != b.err.Error() {
			return fmt.Errorf("error text differs:\n  %v\n  %v", a.err, b.err)
		}
		return nil
	}
	if err := gensEqual(a.gens, b.gens); err != nil {
		return fmt.Errorf("frontiers differ: %w", err)
	}
	if a.stats.GreedyMerges != b.stats.GreedyMerges {
		return fmt.Errorf("merges %d vs %d", a.stats.GreedyMerges, b.stats.GreedyMerges)
	}
	return nil
}

func gensEqual(a, b map[string]dht.GenSet) error {
	if len(a) != len(b) {
		return fmt.Errorf("column counts differ: %d vs %d", len(a), len(b))
	}
	for col, ga := range a {
		gb, ok := b[col]
		if !ok {
			return fmt.Errorf("column %s missing", col)
		}
		na, nb := ga.Nodes(), gb.Nodes()
		if len(na) != len(nb) {
			return fmt.Errorf("column %s: %d vs %d members", col, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				return fmt.Errorf("column %s member %d: node %d vs %d", col, i, na[i], nb[i])
			}
		}
	}
	return nil
}

// TestMultiGreedyMatchesRescan is the differential guard for the
// incremental ascent: on random trees, random skewed data and random k,
// the delta-updated histogram walk must take exactly the merge sequence
// of the full-rescan reference — same frontiers, same merge count, same
// unsatisfiability verdicts — over the rows and over the weighted
// tuples of the table's sketch alike.
func TestMultiGreedyMatchesRescan(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nCols := 2 + rng.Intn(2)
		cols := make([]string, nCols)
		schemaCols := make([]relation.Column, 0, nCols)
		trees := make(map[string]*dht.Tree, nCols)
		ming := make(map[string]dht.GenSet, nCols)
		maxg := make(map[string]dht.GenSet, nCols)
		for ci := range cols {
			cols[ci] = fmt.Sprintf("q%d", ci)
			schemaCols = append(schemaCols, relation.Column{Name: cols[ci], Kind: relation.QuasiCategorical})
		}
		schema, err := relation.NewSchema(schemaCols)
		if err != nil {
			t.Fatal(err)
		}
		tbl := relation.NewTable(schema)
		rows := 100 + rng.Intn(900)
		colValues := make([][]string, nCols)
		for ci, col := range cols {
			tree := randomCatTree(rng)
			trees[col] = tree
			ming[col] = dht.LeafGenSet(tree)
			maxg[col] = dht.RootGenSet(tree)
			colValues[ci] = randomValues(tree, rows, rng)
		}
		row := make([]string, nCols)
		for r := 0; r < rows; r++ {
			for ci := range cols {
				row[ci] = colValues[ci][r]
			}
			if err := tbl.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		k := 1 + rng.Intn(20)
		workers := 1 + rng.Intn(4)

		rowLeaves, err := resolveRowLeaves(context.Background(), tbl, cols, ming)
		if err != nil {
			t.Fatal(err)
		}
		inc, ref := greedyBoth(cols, ming, maxg, k, workers, rowLeaves, ones(rows))
		if err := sameAscent(inc, ref); err != nil {
			t.Fatalf("seed %d: incremental vs rescan: %v", seed, err)
		}

		// The weighted form production searches: the table's distinct
		// quasi-tuples with their counts must drive both ascents to the
		// outcomes of the row form.
		sk := sketchFromSegments(t, tbl, trees, 64)
		leaves, counts, err := sk.decodeTuples()
		if err != nil {
			t.Fatal(err)
		}
		tupInc, tupRef := greedyBoth(cols, ming, maxg, k, workers, leaves, counts)
		if err := sameAscent(tupInc, inc); err != nil {
			t.Fatalf("seed %d: incremental, tuples vs rows: %v", seed, err)
		}
		if err := sameAscent(tupRef, ref); err != nil {
			t.Fatalf("seed %d: rescan, tuples vs rows: %v", seed, err)
		}
	}
}

// greedyBenchInputs builds the greedy ascent fixture: 20k
// synthetic rows, per-column mono frontiers at k=25.
func greedyBenchInputs(tb testing.TB) (*relation.Table, []string, map[string]dht.GenSet, map[string]dht.GenSet) {
	tb.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		tb.Fatal(err)
	}
	trees := ontology.Trees()
	quasi := tbl.Schema().QuasiColumns()
	ming := map[string]dht.GenSet{}
	maxg := map[string]dht.GenSet{}
	for _, col := range quasi {
		values, err := tbl.Column(col)
		if err != nil {
			tb.Fatal(err)
		}
		mg := dht.RootGenSet(trees[col])
		g, _, err := MonoBin(trees[col], mg, values, 25, false)
		if err != nil {
			tb.Fatal(err)
		}
		ming[col] = g
		maxg[col] = mg
	}
	return tbl, quasi, ming, maxg
}

// TestMultiGreedyIncrementalFaster is the perf regression guard for the
// acceptance criterion: the incremental ascent must beat the rescan
// reference by >= 1.3x on the 20k benchmark fixture (the measured gap
// is far larger; 1.3x keeps the bound robust on noisy CI runners).
func TestMultiGreedyIncrementalFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row ascent x4 in -short mode")
	}
	tbl, cols, ming, maxg := greedyBenchInputs(t)
	ctx := context.Background()
	rowLeaves, err := resolveRowLeaves(ctx, tbl, cols, ming)
	if err != nil {
		t.Fatal(err)
	}
	weights := ones(tbl.NumRows())
	timeOf := func(fn func() error) time.Duration {
		best := time.Duration(0)
		for i := 0; i < 2; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	incDur := timeOf(func() error {
		var s MultiStats
		_, _, err := multiGreedy(ctx, cols, ming, maxg, 25, 1, rowLeaves, weights, &s)
		return err
	})
	refDur := timeOf(func() error {
		var s MultiStats
		_, _, err := multiGreedyRescan(ctx, cols, ming, maxg, 25, 1, rowLeaves, weights, &s)
		return err
	})
	if incDur*13 > refDur*10 {
		t.Errorf("incremental ascent = %v vs rescan = %v; want >= 1.3x speedup", incDur, refDur)
	}
}

// TestMultiGreedyWorkersIdentical pins determinism of the incremental
// ascent across worker counts on the benchmark fixture.
func TestMultiGreedyWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row ascent x3 in -short mode")
	}
	tbl, cols, ming, maxg := greedyBenchInputs(t)
	var baseline map[string]dht.GenSet
	for _, workers := range []int{1, 2, 8} {
		out, _, err := multiBinTable(tbl, cols, ming, maxg, 25, StrategyGreedy, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = out
		} else if err := gensEqual(out, baseline); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

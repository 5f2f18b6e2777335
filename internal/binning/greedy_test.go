package binning

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

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

// TestMultiGreedyMatchesRescanOn20k is the differential guard at the
// benchmark fixture's scale, where the ascent makes many merges and
// bins cross k through collisions: at several k and worker counts both
// ascents must agree, over the rows and over the weighted tuples of the
// fixture's sketch alike.
func TestMultiGreedyMatchesRescanOn20k(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row ascents in -short mode")
	}
	tbl, cols, ming, maxg := greedyBenchInputs(t)
	rowLeaves, err := resolveRowLeaves(context.Background(), tbl, cols, ming)
	if err != nil {
		t.Fatal(err)
	}
	tupleLeaves, counts, err := sketchFromSegments(t, tbl, ontology.Trees(), 4096).decodeTuples()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 25, 100} {
		for _, workers := range []int{1, 2} {
			inc, ref := greedyBoth(cols, ming, maxg, k, workers, rowLeaves, ones(tbl.NumRows()))
			if err := sameAscent(inc, ref); err != nil {
				t.Fatalf("k=%d workers=%d: incremental vs rescan: %v", k, workers, err)
			}
			if inc.err == nil && inc.stats.GreedyMerges == 0 {
				t.Fatalf("k=%d: fixture needed no merges; the comparison is vacuous", k)
			}
			tupInc, tupRef := greedyBoth(cols, ming, maxg, k, workers, tupleLeaves, counts)
			if err := sameAscent(tupInc, tupRef); err != nil {
				t.Fatalf("k=%d workers=%d: tuples, incremental vs rescan: %v", k, workers, err)
			}
			if err := sameAscent(tupInc, inc); err != nil {
				t.Fatalf("k=%d workers=%d: incremental, tuples vs rows: %v", k, workers, err)
			}
		}
	}
}

// FuzzGreedyMatchesRescan drives both ascents over 2-3 random category
// trees and fuzzer-chosen weighted tuples: each tuple takes one byte
// per column for its leaf and one for its weight, drawn from [1, 2k] so
// bins start on both sides of k and cross it as merges collide them.
// Each column's ascent is capped at the root's children half the time,
// so it can exhaust. Frontiers, merge counts and error text must be identical.
func FuzzGreedyMatchesRescan(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(3))
	f.Add(int64(2), []byte("weighted tuples around k"), uint8(7))
	f.Add(int64(3), []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, data []byte, kRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		cols := make([]string, 2+rng.Intn(2))
		ming := make(map[string]dht.GenSet, len(cols))
		maxg := make(map[string]dht.GenSet, len(cols))
		leaves := make([][]dht.NodeID, len(cols))
		for ci := range cols {
			cols[ci] = fmt.Sprintf("q%d", ci)
			tree := randomCatTree(rng)
			ming[cols[ci]] = dht.LeafGenSet(tree)
			maxg[cols[ci]] = dht.RootGenSet(tree)
			if rng.Intn(2) == 0 {
				g, err := dht.NewGenSet(tree, tree.Children(tree.Root()))
				if err != nil {
					t.Fatal(err)
				}
				maxg[cols[ci]] = g
			}
			leaves[ci] = tree.Leaves()
		}
		k := int(kRaw)%16 + 1
		tuples := make([][]dht.NodeID, len(cols))
		var weights []int
		for i := 0; i+len(cols) < len(data); i += len(cols) + 1 {
			for ci := range cols {
				tuples[ci] = append(tuples[ci], leaves[ci][int(data[i+ci])%len(leaves[ci])])
			}
			weights = append(weights, 1+int(data[i+len(cols)])%(2*k))
		}
		if len(weights) == 0 {
			return
		}
		inc, ref := greedyBoth(cols, ming, maxg, k, 1+rng.Intn(3), tuples, weights)
		if err := sameAscent(inc, ref); err != nil {
			t.Fatalf("k=%d, %d tuples: %v", k, len(weights), err)
		}
	})
}

// benchmarkGreedyAscent times one ascent over the 20k fixture's rows at
// K=25 with one worker. scripts/bench.sh gates the incremental ascent
// at >= 1.3x the rescan's speed.
func benchmarkGreedyAscent(b *testing.B, ascend func(context.Context, []string, map[string]dht.GenSet, map[string]dht.GenSet, int, int, [][]dht.NodeID, []int, *MultiStats) (map[string]dht.GenSet, MultiStats, error)) {
	tbl, cols, ming, maxg := greedyBenchInputs(b)
	ctx := context.Background()
	rowLeaves, err := resolveRowLeaves(ctx, tbl, cols, ming)
	if err != nil {
		b.Fatal(err)
	}
	weights := ones(tbl.NumRows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s MultiStats
		if _, _, err := ascend(ctx, cols, ming, maxg, 25, 1, rowLeaves, weights, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiGreedyIncremental(b *testing.B) { benchmarkGreedyAscent(b, multiGreedy) }
func BenchmarkMultiGreedyRescan(b *testing.B)      { benchmarkGreedyAscent(b, multiGreedyRescan) }

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

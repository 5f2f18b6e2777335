package binning

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// incremental runs multiGreedy with the key layout of the minimal
// frontiers' trees, in the rescan oracle's signature; the incremental
// ascent runs on one goroutine whatever workers says.
func incremental(ctx context.Context, cols []string, ming, maxg map[string]dht.GenSet, k, _ int, leaves [][]dht.NodeID, weights []int, stats *MultiStats) (map[string]dht.GenSet, MultiStats, error) {
	layout, err := layoutOf(cols, ming)
	if err != nil {
		return nil, *stats, err
	}
	return multiGreedy(ctx, cols, layout, ming, maxg, k, leaves, weights, stats, nil)
}

// greedyBoth runs the incremental and the rescan ascent on the same
// weighted positions and returns both outcomes.
func greedyBoth(cols []string, ming, maxg map[string]dht.GenSet, k, workers int, leaves [][]dht.NodeID, weights []int) (inc, ref ascent) {
	ctx := context.Background()
	var s1, s2 MultiStats
	inc.gens, inc.stats, inc.err = incremental(ctx, cols, ming, maxg, k, workers, leaves, weights, &s1)
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
	if a.stats != b.stats {
		return fmt.Errorf("stats %+v vs %+v", a.stats, b.stats)
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
		leaves, counts := sketchFromSegments(t, tbl, trees, 64).decodeTuples()
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
	tupleLeaves, counts := sketchFromSegments(t, tbl, ontology.Trees(), 4096).decodeTuples()
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
// On random frontiers, the exhaustive search's packed-key minimum bin
// must also equal the map-based count over cover indices.
func FuzzGreedyMatchesRescan(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(3))
	f.Add(int64(2), []byte("weighted tuples around k"), uint8(7))
	f.Add(int64(3), []byte{}, uint8(0))
	// Tuples that share their low key fields: only a grouping sorted on
	// every field brings equal keys together.
	f.Add(int64(57), []byte("0000!10000"), uint8('e'))
	// 300 sparse tuples over three columns: the ascent packs a column
	// whose postings fill, walks tombstones and compacts its slab
	// (TestMultiGreedySlabCompaction pins the same shape).
	f.Add(int64(1), seededBytes(1, 1200), uint8(2))
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

		layout, err := layoutOf(cols, ming)
		if err != nil {
			t.Fatal(err)
		}
		covers := make([][]int32, len(cols))
		cover := make([][]uint64, len(cols))
		for ci, col := range cols {
			g := ming[col]
			for merges := rng.Intn(4); merges > 0; merges-- {
				cands := g.MergeCandidates()
				if len(cands) == 0 {
					break
				}
				if g, err = g.MergeAt(cands[rng.Intn(len(cands))]); err != nil {
					t.Fatal(err)
				}
			}
			covers[ci] = coverTable(g)
			cover[ci] = coverNodes(g, layout[ci])
		}
		got, err := minJointBin(context.Background(), tuples, weights, cover)
		if err != nil {
			t.Fatal(err)
		}
		if want := jointMinBin(tuples, covers, weights); got != want {
			t.Fatalf("%d tuples: packed-key minimum bin %d, map count %d", len(weights), got, want)
		}
	})
}

// seededBytes returns n pseudo-random bytes drawn from seed.
func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// balancedTree builds a categorical tree of the given fanout and depth.
func balancedTree(tb testing.TB, attr string, fanout, depth int) *dht.Tree {
	tb.Helper()
	n := 0
	var build func(d int) dht.Spec
	build = func(d int) dht.Spec {
		n++
		s := dht.Spec{Value: fmt.Sprintf("%s%d", attr, n)}
		if d < depth {
			for i := 0; i < fanout; i++ {
				s.Children = append(s.Children, build(d+1))
			}
		}
		return s
	}
	tree, err := dht.NewCategorical(attr, build(0))
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

// TestMultiGreedySlabCompaction drives the incremental ascent through
// every path of its slab: 3000 sparse tuples over three 16-leaf binary
// trees at k=5 collide rarely, so the merged columns' lists overflow
// their postings' headroom and pack, while the collisions that do
// happen leave tombstones that later merges walk past until they pass
// half the slab and it compacts. Frontiers, stats and merge count must
// match the rescan oracle's.
func TestMultiGreedySlabCompaction(t *testing.T) {
	cols := []string{"a", "b", "c"}
	ming := make(map[string]dht.GenSet, len(cols))
	maxg := make(map[string]dht.GenSet, len(cols))
	leaves := make([][]dht.NodeID, len(cols))
	for ci, col := range cols {
		tree := balancedTree(t, col, 2, 4)
		ming[col] = dht.LeafGenSet(tree)
		maxg[col] = dht.RootGenSet(tree)
		leaves[ci] = tree.Leaves()
	}
	rng := rand.New(rand.NewSource(2005))
	tuples := make([][]dht.NodeID, len(cols))
	weights := ones(3000)
	for range weights {
		for ci := range cols {
			tuples[ci] = append(tuples[ci], leaves[ci][rng.Intn(len(leaves[ci]))])
		}
	}
	layout, err := layoutOf(cols, ming)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	var inc, ref ascent
	var sl *binSlab
	ctx := context.Background()
	inc.gens, sl, inc.err = greedyAscent(ctx, cols, layout, ming, maxg, k, tuples, weights, &inc.stats, nil)
	ref.gens, ref.stats, ref.err = multiGreedyRescan(ctx, cols, ming, maxg, k, 1, tuples, weights, &ref.stats)
	if err := sameAscent(inc, ref); err != nil {
		t.Fatalf("incremental vs rescan: %v", err)
	}
	if inc.err != nil || inc.stats.GreedyMerges == 0 {
		t.Fatalf("fixture made no merges (err %v)", inc.err)
	}
	if sl.compactions == 0 || sl.packs == 0 || sl.deadVisits == 0 {
		t.Fatalf("slab paths not all taken: %d compactions, %d packs, %d tombstone visits",
			sl.compactions, sl.packs, sl.deadVisits)
	}
	if err := checkSlab(sl, len(weights)); err != nil {
		t.Fatal(err)
	}
}

// checkSlab recounts a slab's invariants from its live bins: the
// weights sum to total, no two live bins share a key, every live slot
// sits once in each column's lists under its own component, and the
// thin counts match the live bins below k.
func checkSlab(sl *binSlab, total int) error {
	sum, keys := 0, make(map[uint64]bool)
	thin := make([][]int, len(sl.thin))
	for ci := range thin {
		thin[ci] = make([]int, len(sl.thin[ci]))
	}
	for _, bin := range sl.bins {
		if bin.n == deadBin {
			continue
		}
		if keys[bin.key] {
			return fmt.Errorf("two live bins share key %#x", bin.key)
		}
		keys[bin.key] = true
		sum += bin.n
		for ci := range thin {
			if bin.n < sl.k {
				thin[ci][sl.layout.field(bin.key, ci)]++
			}
		}
	}
	if sum != total {
		return fmt.Errorf("live weights sum to %d, want %d", sum, total)
	}
	for ci := range thin {
		if !slices.Equal(thin[ci], sl.thin[ci]) {
			return fmt.Errorf("column %d thin counts %v, recounted %v", ci, sl.thin[ci], thin[ci])
		}
		seen := make(map[int32]bool)
		for comp, n := range sl.size[ci] {
			for _, s := range sl.post[ci][sl.off[ci][comp] : sl.off[ci][comp]+n] {
				bin := sl.bins[s]
				if bin.n == deadBin {
					continue
				}
				if seen[s] || sl.layout.field(bin.key, ci) != uint64(comp) {
					return fmt.Errorf("column %d: slot %d listed again or under component %d", ci, s, comp)
				}
				seen[s] = true
			}
		}
		if len(seen) != len(keys) {
			return fmt.Errorf("column %d lists %d live slots, want %d", ci, len(seen), len(keys))
		}
	}
	return nil
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

func BenchmarkMultiGreedyIncremental(b *testing.B) { benchmarkGreedyAscent(b, incremental) }
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

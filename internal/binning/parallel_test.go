package binning

import (
	"fmt"
	"testing"

	"repro/internal/dht"
	"repro/internal/relation"
)

// exhaustiveFixture builds a table whose two-column candidate space is
// large enough for the parallel search to shard meaningfully: a numeric
// age tree with three split levels and the role tree.
func exhaustiveFixture(t *testing.T, rows int) (*relation.Table, []string, map[string]dht.GenSet, map[string]dht.GenSet) {
	t.Helper()
	ageTree, err := dht.NewNumeric("age", 0, 80, []float64{10, 20, 30, 40, 50, 60, 70})
	if err != nil {
		t.Fatal(err)
	}
	trees := map[string]*dht.Tree{"age": ageTree, "role": roleTree(t)}
	tbl := relation.NewTable(relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.Identifying},
		relation.Column{Name: "age", Kind: relation.QuasiNumeric},
		relation.Column{Name: "role", Kind: relation.QuasiCategorical},
	))
	roles := []string{"Physician", "Surgeon", "Nurse", "Pharmacist", "Clerk", "Manager"}
	// Deterministic pseudo-random rows (LCG) — no global rand state.
	state := uint64(12345)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < rows; i++ {
		row := []string{
			fmt.Sprintf("id-%05d", i),
			fmt.Sprintf("%d", next(80)),
			roles[next(len(roles))],
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	cols := []string{"age", "role"}
	ming := map[string]dht.GenSet{}
	maxg := map[string]dht.GenSet{}
	for _, col := range cols {
		values, err := tbl.Column(col)
		if err != nil {
			t.Fatal(err)
		}
		mg := dht.RootGenSet(trees[col])
		g, _, err := MonoBin(trees[col], mg, values, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		ming[col] = g
		maxg[col] = mg
	}
	return tbl, cols, ming, maxg
}

// TestMultiBinExhaustiveParallelDeterminism asserts the acceptance
// criterion for the concurrent binning search: identical frontiers and
// identical work counters for Workers ∈ {1, 2, 8}.
func TestMultiBinExhaustiveParallelDeterminism(t *testing.T) {
	tbl, cols, ming, maxg := exhaustiveFixture(t, 600)
	const k = 8

	baseUlti, baseStats, err := multiBinTable(tbl, cols, ming, maxg, k, StrategyExhaustive, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.Candidates < 8 {
		t.Fatalf("fixture too small: only %d candidates enumerated", baseStats.Candidates)
	}
	for _, workers := range []int{2, 8} {
		ulti, stats, err := multiBinTable(tbl, cols, ming, maxg, k, StrategyExhaustive, 0, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats != baseStats {
			t.Errorf("workers=%d: stats %+v differ from sequential %+v", workers, stats, baseStats)
		}
		for _, col := range cols {
			if !ulti[col].Equal(baseUlti[col]) {
				t.Errorf("workers=%d: %s frontier %v differs from sequential %v",
					workers, col, ulti[col], baseUlti[col])
			}
		}
	}
}

// TestMultiBinWorkerCountDoesNotChangeAuto ensures Auto strategy
// resolution ignores the worker count.
func TestMultiBinWorkerCountDoesNotChangeAuto(t *testing.T) {
	tbl, cols, ming, maxg := exhaustiveFixture(t, 200)
	for _, workers := range []int{1, 8} {
		_, stats, err := multiBinTable(tbl, cols, ming, maxg, 8, StrategyAuto, 0, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Strategy != StrategyExhaustive {
			t.Fatalf("workers=%d: Auto resolved to %v", workers, stats.Strategy)
		}
	}
}

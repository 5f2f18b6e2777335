package watermark

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/dht"
)

// These tests pin the robustness claims of §7.2 (Figure 12) and the
// generalization-attack claim of §5.2 at representative operating points;
// the full parameter sweeps live in internal/experiments.

func markedFixture(t *testing.T, rows int, eta uint64) *fixture {
	t.Helper()
	f := newFixture(t, rows, eta)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	f.tbl = marked
	return f
}

func frontierValues(f *fixture, col string) []string {
	return f.columns[col].UltiGen.Values()
}

func TestRobustnessSubsetAlteration(t *testing.T) {
	f := markedFixture(t, 6000, 10)
	rng := rand.New(rand.NewSource(5))
	cols := map[string][]string{
		"zip":  frontierValues(f, "zip"),
		"role": frontierValues(f, "role"),
	}
	if _, err := attack.AlterSubset(f.tbl, cols, 0.4, rng); err != nil {
		t.Fatal(err)
	}
	res, err := detect(f.tbl, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	// Paper: ~30% mark loss at 70%+ alteration; at 40% we demand much less.
	if loss > 0.25 {
		t.Errorf("mark loss %v after 40%% alteration; scheme should survive", loss)
	}
}

func TestRobustnessSubsetAddition(t *testing.T) {
	f := markedFixture(t, 6000, 10)
	rng := rand.New(rand.NewSource(6))
	gen := attack.BogusRowGenerator(f.tbl.Schema(), "ssn", "bogus", map[string][]string{
		"zip":  frontierValues(f, "zip"),
		"role": frontierValues(f, "role"),
	}, rng)
	if _, err := attack.AddSubset(f.tbl, 0.6, gen); err != nil {
		t.Fatal(err)
	}
	res, err := detect(f.tbl, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	// Paper: "the newly-added bogus bits do not take precedence over the
	// existing bits in the majority-voting process".
	if loss > 0.15 {
		t.Errorf("mark loss %v after 60%% addition", loss)
	}
}

func TestRobustnessSubsetDeletion(t *testing.T) {
	f := markedFixture(t, 6000, 10)
	rng := rand.New(rand.NewSource(7))
	if _, err := attack.DeleteRandom(f.tbl, 0.5, rng); err != nil {
		t.Fatal(err)
	}
	res, err := detect(f.tbl, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	if loss > 0.2 {
		t.Errorf("mark loss %v after 50%% deletion", loss)
	}
}

func TestRobustnessRangeDeletion(t *testing.T) {
	f := markedFixture(t, 6000, 10)
	rng := rand.New(rand.NewSource(8))
	deleted, err := attack.DeleteRanges(f.tbl, "ssn", 0.4, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("range deletion removed nothing")
	}
	res, err := detect(f.tbl, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	if loss > 0.2 {
		t.Errorf("mark loss %v after 40%% range deletion", loss)
	}
}

func TestGeneralizationAttackHierarchicalSurvives(t *testing.T) {
	// §5.2: a keyless one-level generalization within the usage metrics.
	// Zip values sit at the state level with the region ceiling directly
	// above, so this attack erases zip's bits entirely; the role column's
	// deeper paths keep voting, and the hierarchical detector must still
	// recover the mark from those surviving levels.
	f := markedFixture(t, 8000, 10)
	for col, spec := range f.columns {
		if _, err := attack.Generalize(f.tbl, col, spec.Tree, spec.MaxGen, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := detect(f.tbl, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	if loss > 0.2 {
		t.Errorf("hierarchical mark loss %v after generalization attack; must survive (§5.2)", loss)
	}
}

func TestGeneralizationAttackDestroysSingleLevel(t *testing.T) {
	f := newFixture(t, 8000, 10)
	cols := map[string]ColumnSpec{"zip": f.columns["zip"]}
	marked := f.tbl.Clone()
	if _, err := EmbedSingleLevel(marked, "ssn", cols, f.params); err != nil {
		t.Fatal(err)
	}
	// sanity: clean detection works
	clean, err := DetectSingleLevel(marked, "ssn", cols, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Mark.Equal(f.params.Mark) {
		t.Fatal("single-level clean detection failed")
	}
	// the keyless generalization attack
	spec := cols["zip"]
	if _, err := attack.Generalize(marked, "zip", spec.Tree, spec.MaxGen, 1); err != nil {
		t.Fatal(err)
	}
	res, err := DetectSingleLevel(marked, "ssn", cols, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VotesCast != 0 {
		t.Errorf("single-level detector still cast %d votes after generalization; should be blind", res.Stats.VotesCast)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	// With zero votes every position resolves to 0: loss equals the
	// fraction of 1-bits in the mark — i.e. the mark is gone.
	if loss < 0.3 {
		t.Errorf("single-level scheme survived the generalization attack (loss %v); the paper says it must not", loss)
	}
	// And the hierarchical detector on the SAME attacked table (embedded
	// hierarchically) demonstrates the fix — covered by the test above.
}

func TestCombinedAttackBattery(t *testing.T) {
	// Stacked attacks: alteration + addition + deletion at moderate rates.
	f := markedFixture(t, 8000, 8)
	rng := rand.New(rand.NewSource(11))
	colVals := map[string][]string{
		"zip":  frontierValues(f, "zip"),
		"role": frontierValues(f, "role"),
	}
	if _, err := attack.AlterSubset(f.tbl, colVals, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	gen := attack.BogusRowGenerator(f.tbl.Schema(), "ssn", "bogus", colVals, rng)
	if _, err := attack.AddSubset(f.tbl, 0.2, gen); err != nil {
		t.Fatal(err)
	}
	if _, err := attack.DeleteRandom(f.tbl, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	res, err := detect(f.tbl, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	if loss > 0.25 {
		t.Errorf("mark loss %v after combined battery", loss)
	}
}

func TestSmallerEtaMoreResilient(t *testing.T) {
	// Figure 12's secondary observation: smaller η (more marked tuples)
	// loses fewer bits under the same attack.
	losses := make(map[uint64]float64)
	for _, eta := range []uint64{10, 100} {
		f := newFixture(t, 6000, eta)
		marked := f.tbl.Clone()
		if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		cols := map[string][]string{
			"zip":  frontierValues(f, "zip"),
			"role": frontierValues(f, "role"),
		}
		if _, err := attack.AlterSubset(marked, cols, 0.6, rng); err != nil {
			t.Fatal(err)
		}
		res, err := detect(marked, "ssn", f.columns, f.params)
		if err != nil {
			t.Fatal(err)
		}
		losses[eta], _ = MarkLoss(f.params.Mark, res)
	}
	if losses[10] > losses[100] {
		t.Errorf("eta=10 loss %v exceeds eta=100 loss %v; more bandwidth should not hurt", losses[10], losses[100])
	}
}

func TestRespecializationWeightedVoting(t *testing.T) {
	// §5.3 weighted voting under a one-level re-specialization: the leaf
	// level is randomized, the state level keeps the mark. Weighted
	// voting must not do worse than unweighted, and must recover the mark.
	f := newFixture(t, 8000, 10)
	zipSpec := f.columns["zip"]
	var leaves []string
	for _, l := range zipSpec.Tree.Leaves() {
		leaves = append(leaves, zipSpec.Tree.Value(l))
	}
	leafUlti, err := dht.NewGenSetFromValues(zipSpec.Tree, leaves)
	if err != nil {
		t.Fatal(err)
	}
	spec := ColumnSpec{Tree: zipSpec.Tree, MaxGen: zipSpec.MaxGen, UltiGen: leafUlti}
	cols := map[string]ColumnSpec{"zip": spec}

	// push the fixture's state-level zips down to deterministic leaves
	base := f.tbl.Clone()
	ci, _ := base.Schema().Index("zip")
	for i := 0; i < base.NumRows(); i++ {
		id, err := spec.Tree.ResolveValue(base.CellAt(i, ci))
		if err != nil {
			t.Fatal(err)
		}
		for !spec.UltiGen.Contains(id) {
			id = spec.Tree.Children(id)[i%3]
		}
		base.SetCellAt(i, ci, spec.Tree.Value(id))
	}

	marked := base.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", cols, f.params); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	if _, err := attack.Respecialize(marked, "zip", spec.Tree, spec.MaxGen, spec.UltiGen, 1, rng); err != nil {
		t.Fatal(err)
	}

	plain := f.params
	weighted := f.params
	weighted.WeightedVoting = true
	resPlain, err := detect(marked, "ssn", cols, plain)
	if err != nil {
		t.Fatal(err)
	}
	resWeighted, err := detect(marked, "ssn", cols, weighted)
	if err != nil {
		t.Fatal(err)
	}
	lossPlain, _ := MarkLoss(f.params.Mark, resPlain)
	lossWeighted, _ := MarkLoss(f.params.Mark, resWeighted)
	if lossWeighted > lossPlain {
		t.Errorf("weighted voting (%v) worse than unweighted (%v) under re-specialization", lossWeighted, lossPlain)
	}
	if lossWeighted > 0.1 {
		t.Errorf("weighted voting loss %v; the intact state level should recover the mark", lossWeighted)
	}
}

func TestIdentifierScrubbingDestroysMark(t *testing.T) {
	// Selection and addressing are anchored on the identifying column:
	// rewriting every identifier to one value puts all tuples in one
	// selection bucket and one position per column, so the mark is lost.
	// An attacker who may rewrite identifiers is outside this scheme.
	f := newFixture(t, 4000, 8)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	ci, _ := marked.Schema().Index("ssn")
	for i := 0; i < marked.NumRows(); i++ {
		marked.SetCellAt(i, ci, "SCRUBBED")
	}
	res, err := detect(marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if loss, _ := MarkLoss(f.params.Mark, res); loss < 0.2 {
		t.Errorf("identifier-anchored detection survived scrubbing (loss %v)?", loss)
	}
}

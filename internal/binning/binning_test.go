package binning

import (
	"context"
	"strings"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// roleTree: a small Figure-1-style hierarchy.
func roleTree(t *testing.T) *dht.Tree {
	t.Helper()
	tree, err := dht.NewCategorical("role", dht.Spec{
		Value: "Person",
		Children: []dht.Spec{
			{Value: "Medical", Children: []dht.Spec{
				{Value: "Doctor", Children: []dht.Spec{{Value: "Physician"}, {Value: "Surgeon"}}},
				{Value: "Paramedic", Children: []dht.Spec{{Value: "Nurse"}, {Value: "Pharmacist"}}},
			}},
			{Value: "Admin", Children: []dht.Spec{{Value: "Clerk"}, {Value: "Manager"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func repeat(v string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestMonoBinDownward(t *testing.T) {
	tree := roleTree(t)
	maxg := dht.RootGenSet(tree)
	// 6 Physicians, 6 Surgeons, 3 Nurses, 3 Pharmacists, 5 Clerks, 1 Manager.
	values := append(repeat("Physician", 6), repeat("Surgeon", 6)...)
	values = append(values, repeat("Nurse", 3)...)
	values = append(values, repeat("Pharmacist", 3)...)
	values = append(values, repeat("Clerk", 5)...)
	values = append(values, repeat("Manager", 1)...)

	gen, stats, err := MonoBin(tree, maxg, values, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	// k=5: Physician(6) and Surgeon(6) are individually fine, so Doctor
	// splits to leaves. Paramedic(6) stays (children have 3 < 5).
	// Admin(6) stays (Manager has 1 < 5).
	got := gen.String()
	for _, want := range []string{"Physician", "Surgeon", "Paramedic", "Admin"} {
		if !strings.Contains(got, want) {
			t.Errorf("frontier %s missing %s", got, want)
		}
	}
	if strings.Contains(got, "Nurse") || strings.Contains(got, "Clerk") {
		t.Errorf("frontier descended below k-anonymity: %s", got)
	}
	if stats.NodesVisited == 0 {
		t.Error("NodesVisited not counted")
	}
	if len(stats.Deficient) != 0 {
		t.Errorf("conservative rule produced deficient bins: %v", stats.Deficient)
	}

	// Verify the minimality invariant: every non-leaf member with data
	// has at least one child below k.
	hist, _ := infoloss.LeafHistogram(tree, values)
	sub := infoloss.SubtreeCounts(tree, hist)
	for _, nd := range gen.Nodes() {
		if tree.Node(nd).IsLeaf() || sub[nd] == 0 {
			continue
		}
		allOK := true
		for _, c := range tree.Children(nd) {
			if sub[c] < 5 {
				allOK = false
			}
		}
		if allOK {
			t.Errorf("member %q is not minimal: all children satisfy k", tree.Value(nd))
		}
	}
}

func TestMonoBinRespectsMaxGens(t *testing.T) {
	tree := roleTree(t)
	// Usage metrics: no generalization above {Medical, Admin}.
	maxg, err := dht.NewGenSetFromValues(tree, []string{"Medical", "Admin"})
	if err != nil {
		t.Fatal(err)
	}
	values := append(repeat("Physician", 10), repeat("Clerk", 10)...)
	gen, _, err := MonoBin(tree, maxg, values, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if !gen.AtOrBelow(maxg) {
		t.Errorf("frontier %v above usage metrics %v", gen, maxg)
	}
}

func TestMonoBinNotBinnable(t *testing.T) {
	tree := roleTree(t)
	maxg, _ := dht.NewGenSetFromValues(tree, []string{"Medical", "Admin"})
	// Admin has only 2 tuples: not binnable at k=3 under these metrics.
	values := append(repeat("Physician", 10), repeat("Clerk", 2)...)
	if _, _, err := MonoBin(tree, maxg, values, 3, false); err == nil {
		t.Error("deficient maximal node accepted")
	}
	// With the root as maximal node it is binnable (one big bin).
	gen, _, err := MonoBin(tree, dht.RootGenSet(tree), values, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Len() != 1 {
		t.Errorf("expected root-only frontier, got %v", gen)
	}
}

func TestMonoBinEmptyMaxNodeKept(t *testing.T) {
	tree := roleTree(t)
	maxg, _ := dht.NewGenSetFromValues(tree, []string{"Medical", "Admin"})
	// No admin tuples at all: empty bin is fine.
	values := repeat("Physician", 10)
	gen, _, err := MonoBin(tree, maxg, values, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	admin, _ := tree.ByValue("Admin")
	if !gen.Contains(admin) {
		t.Errorf("empty maximal node must stay on the frontier: %v", gen)
	}
}

func TestMonoBinValidation(t *testing.T) {
	tree := roleTree(t)
	other := roleTree(t)
	if _, _, err := MonoBin(tree, dht.RootGenSet(other), nil, 3, false); err == nil {
		t.Error("foreign maxgens accepted")
	}
	if _, _, err := MonoBin(tree, dht.RootGenSet(tree), nil, 0, false); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := MonoBin(tree, dht.RootGenSet(tree), []string{"bogus"}, 2, false); err == nil {
		t.Error("bogus value accepted")
	}
}

func TestMonoBinAggressive(t *testing.T) {
	tree := roleTree(t)
	maxg := dht.RootGenSet(tree)
	// Physician 6, Surgeon 1: conservative keeps Doctor; aggressive
	// descends (Physician satisfies k=5) and reports Surgeon deficient.
	values := append(repeat("Physician", 6), repeat("Surgeon", 1)...)
	values = append(values, repeat("Nurse", 6)...)
	values = append(values, repeat("Pharmacist", 6)...)
	values = append(values, repeat("Clerk", 6)...)
	values = append(values, repeat("Manager", 6)...)

	consGen, _, err := MonoBin(tree, maxg, values, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	aggGen, aggStats, err := MonoBin(tree, maxg, values, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !aggGen.AtOrBelow(consGen) {
		t.Errorf("aggressive %v should be at-or-below conservative %v", aggGen, consGen)
	}
	phys, _ := tree.ByValue("Physician")
	if !aggGen.Contains(phys) {
		t.Errorf("aggressive should expose Physician: %v", aggGen)
	}
	if len(aggStats.Deficient) != 1 || tree.Value(aggStats.Deficient[0]) != "Surgeon" {
		t.Errorf("Deficient = %v, want [Surgeon]", aggStats.Deficient)
	}
}

func TestMonoBinUpwardAgreesOnResult(t *testing.T) {
	tree := roleTree(t)
	maxg := dht.RootGenSet(tree)
	values := append(repeat("Physician", 6), repeat("Surgeon", 6)...)
	values = append(values, repeat("Nurse", 3)...)
	values = append(values, repeat("Pharmacist", 3)...)
	values = append(values, repeat("Clerk", 5)...)
	values = append(values, repeat("Manager", 1)...)

	down, _, err := MonoBin(tree, maxg, values, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	up, _, err := MonoBinUpward(tree, maxg, values, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Both must be valid k=5 frontiers; upward merges whole sibling
	// groups so it can be equal or comparable to the downward result.
	hist, _ := infoloss.LeafHistogram(tree, values)
	sub := infoloss.SubtreeCounts(tree, hist)
	for _, g := range []dht.GenSet{down, up} {
		for _, nd := range g.Nodes() {
			if n := sub[nd]; n > 0 && n < 5 {
				t.Errorf("frontier %v has bin %q of size %d < 5", g, tree.Value(nd), n)
			}
		}
	}
	if !up.Equal(down) {
		t.Logf("note: upward %v differs from downward %v (both valid)", up, down)
	}
}

func TestMonoBinUpwardNotBinnable(t *testing.T) {
	tree := roleTree(t)
	maxg, _ := dht.NewGenSetFromValues(tree, []string{"Medical", "Admin"})
	values := append(repeat("Physician", 10), repeat("Clerk", 2)...)
	if _, _, err := MonoBinUpward(tree, maxg, values, 3); err == nil {
		t.Error("upward binning climbed past the usage metrics")
	}
	if _, _, err := MonoBinUpward(tree, dht.RootGenSet(tree), nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// twoColumnTable builds a table over role + a tiny numeric age tree where
// each column satisfies k individually but the combination does not —
// the §4.2 motivating example for multi-attribute binning.
func twoColumnTable(t *testing.T) (*relation.Table, map[string]*dht.Tree) {
	t.Helper()
	ageTree, err := dht.NewNumeric("age", 0, 80, []float64{20, 40, 60})
	if err != nil {
		t.Fatal(err)
	}
	trees := map[string]*dht.Tree{"age": ageTree, "role": roleTree(t)}
	tbl := relation.NewTable(relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.Identifying},
		relation.Column{Name: "age", Kind: relation.QuasiNumeric},
		relation.Column{Name: "role", Kind: relation.QuasiCategorical},
	))
	// ages cluster in [0,20) and [40,60); roles split Physician/Clerk.
	rows := [][]string{
		{"1", "5", "Physician"}, {"2", "7", "Physician"}, {"3", "12", "Clerk"},
		{"4", "15", "Clerk"}, {"5", "45", "Physician"}, {"6", "48", "Clerk"},
		{"7", "52", "Physician"}, {"8", "55", "Clerk"}, {"9", "3", "Physician"},
		{"10", "18", "Clerk"}, {"11", "44", "Physician"}, {"12", "59", "Clerk"},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, trees
}

func TestMultiBinExhaustiveAndGreedy(t *testing.T) {
	tbl, trees := twoColumnTable(t)
	cols := []string{"age", "role"}
	k := 3

	mingends := map[string]dht.GenSet{}
	maxgends := map[string]dht.GenSet{}
	for _, col := range cols {
		values, _ := tbl.Column(col)
		maxg := dht.RootGenSet(trees[col])
		g, _, err := MonoBin(trees[col], maxg, values, k, false)
		if err != nil {
			t.Fatal(err)
		}
		mingends[col] = g
		maxgends[col] = maxg
	}

	for _, strat := range []Strategy{StrategyExhaustive, StrategyGreedy, StrategyAuto} {
		ulti, stats, err := multiBinTable(tbl, cols, mingends, maxgends, k, strat, 0, 1)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		// Apply the generalization and verify joint k-anonymity.
		gen := tbl.Clone()
		for _, col := range cols {
			ci, _ := gen.Schema().Index(col)
			for i := 0; i < gen.NumRows(); i++ {
				v, err := ulti[col].GeneralizeValue(gen.CellAt(i, ci))
				if err != nil {
					t.Fatal(err)
				}
				gen.SetCellAt(i, ci, v)
			}
		}
		ok, err := anonymity.SatisfiesK(gen, cols, k)
		if err != nil || !ok {
			t.Errorf("%v: joint k-anonymity violated", strat)
		}
		// Bounds respected.
		for _, col := range cols {
			if !mingends[col].AtOrBelow(ulti[col]) || !ulti[col].AtOrBelow(maxgends[col]) {
				t.Errorf("%v: %s frontier out of bounds", strat, col)
			}
		}
		if strat == StrategyExhaustive && stats.Candidates == 0 {
			t.Error("exhaustive did not count candidates")
		}
	}
}

func TestMultiBinExhaustiveMatchesGreedyValidity(t *testing.T) {
	// Exhaustive finds the loss-minimal valid frontier; greedy must find
	// a valid one with loss >= exhaustive's.
	tbl, trees := twoColumnTable(t)
	cols := []string{"age", "role"}
	k := 3
	mingends := map[string]dht.GenSet{}
	maxgends := map[string]dht.GenSet{}
	for _, col := range cols {
		values, _ := tbl.Column(col)
		maxg := dht.RootGenSet(trees[col])
		g, _, err := MonoBin(trees[col], maxg, values, k, false)
		if err != nil {
			t.Fatal(err)
		}
		mingends[col] = g
		maxgends[col] = maxg
	}
	ex, _, err := multiBinTable(tbl, cols, mingends, maxgends, k, StrategyExhaustive, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	gr, _, err := multiBinTable(tbl, cols, mingends, maxgends, k, StrategyGreedy, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	exLoss := (ex["age"].SpecificityLoss() + ex["role"].SpecificityLoss()) / 2
	grLoss := (gr["age"].SpecificityLoss() + gr["role"].SpecificityLoss()) / 2
	if grLoss+1e-12 < exLoss {
		t.Errorf("greedy loss %v beat exhaustive optimum %v", grLoss, exLoss)
	}
}

// TestMultiBinValidation pins the multi-attribute search's rejections
// as SearchSketch reaches them: K below 1, a negative ε, a column
// without a tree, a tree other than the sketch's, maximal nodes over a
// different tree and an unknown strategy.
func TestMultiBinValidation(t *testing.T) {
	tbl, trees := twoColumnTable(t)
	sk := sketchFromSegments(t, tbl, trees, 5)
	otherAge, err := dht.NewNumeric("age", 0, 80, []float64{40})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"k=0":              {K: 0, Trees: trees},
		"negative epsilon": {K: 2, Epsilon: -1, Trees: trees},
		"missing tree":     {K: 2, Trees: map[string]*dht.Tree{"role": trees["role"]}},
		"other tree":       {K: 2, Trees: map[string]*dht.Tree{"age": otherAge, "role": trees["role"]}},
		"foreign maxgens":  {K: 2, Trees: trees, MaxGens: map[string]dht.GenSet{"age": dht.RootGenSet(otherAge)}},
		"unknown strategy": {K: 2, Trees: trees, Strategy: Strategy(99)},
	} {
		if _, err := SearchSketch(context.Background(), sk, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMultiBinEmptyTable(t *testing.T) {
	tbl, trees := twoColumnTable(t)
	empty := relation.NewTable(tbl.Schema())
	cols := []string{"age", "role"}
	ming := map[string]dht.GenSet{"age": dht.LeafGenSet(trees["age"]), "role": dht.LeafGenSet(trees["role"])}
	maxg := map[string]dht.GenSet{"age": dht.RootGenSet(trees["age"]), "role": dht.RootGenSet(trees["role"])}
	ulti, _, err := multiBinTable(empty, cols, ming, maxg, 5, StrategyAuto, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ulti["age"].Equal(ming["age"]) {
		t.Error("empty table should keep minimal nodes")
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyAuto.String() != "auto" || StrategyExhaustive.String() != "exhaustive" ||
		StrategyGreedy.String() != "greedy" || Strategy(9).String() != "Strategy(9)" {
		t.Error("Strategy.String wrong")
	}
}

// runBinning is the complete binning algorithm of Figure 8 on tbl, the
// stages core.PlanContext and core.ApplyContext run separately: sketch
// tbl, search the sketch, then, on one clone, replay the aggressive
// rule's suppression and transform the survivors at the effective k.
// The input table is not modified.
func runBinning(tbl *relation.Table, cfg Config, cipher *crypt.Cipher) (*relation.Table, *SearchResult, error) {
	sk, err := NewSketch(tbl.Schema(), cfg.Trees)
	if err != nil {
		return nil, nil, err
	}
	if err := sk.Add(tbl); err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	search, err := SearchSketch(ctx, sk, cfg)
	if err != nil {
		return nil, nil, err
	}
	out := tbl.Clone()
	if _, err := Suppress(out, cfg.Trees, search.SuppressValues); err != nil {
		return nil, nil, err
	}
	if err := TransformInPlace(ctx, out, search.UltiGens, search.EffectiveK, cipher, cfg.Workers); err != nil {
		return nil, nil, err
	}
	return out, search, nil
}

func TestRunEndToEnd(t *testing.T) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1500, Seed: 2, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := crypt.NewCipher([]byte("hospital-master-key"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		K:     10,
		Trees: ontology.Trees(),
	}
	binned, res, err := runBinning(tbl, cfg, cipher)
	if err != nil {
		t.Fatal(err)
	}
	quasi := tbl.Schema().QuasiColumns()
	ok, err := anonymity.SatisfiesK(binned, quasi, 10)
	if err != nil || !ok {
		t.Error("binned table violates k-anonymity")
	}
	// identifying column must be encrypted and decryptable
	orig, _ := tbl.Column(ontology.ColSSN)
	enc, _ := binned.Column(ontology.ColSSN)
	for i := 0; i < 20; i++ {
		if enc[i] == orig[i] {
			t.Fatalf("row %d: SSN not encrypted", i)
		}
		back, err := cipher.AppendDecryptString(nil, enc[i])
		if err != nil || string(back) != orig[i] {
			t.Fatalf("row %d: decrypt = %q, %v; want %q", i, back, err, orig[i])
		}
	}
	// losses are sane and frontiers ordered
	for _, col := range quasi {
		l := res.ColumnLoss[col]
		if l < 0 || l > 1 {
			t.Errorf("%s loss = %v", col, l)
		}
		if !res.MinGens[col].AtOrBelow(res.MaxGens[col]) {
			t.Errorf("%s: min not below max", col)
		}
		if !res.MinGens[col].AtOrBelow(res.UltiGens[col]) || !res.UltiGens[col].AtOrBelow(res.MaxGens[col]) {
			t.Errorf("%s: ultimate frontier out of [min,max]", col)
		}
	}
	if res.AvgLoss < 0 || res.AvgLoss > 1 {
		t.Errorf("AvgLoss = %v", res.AvgLoss)
	}
	if res.EffectiveK != 10 {
		t.Errorf("EffectiveK = %d", res.EffectiveK)
	}
	if res.Suppressed != 0 {
		t.Errorf("conservative run suppressed %d rows", res.Suppressed)
	}
	if binned.NumRows() != tbl.NumRows() {
		t.Error("row count changed")
	}
}

// TestSearchTransformEqualsRun pins the sketch pipeline (runBinning)
// against the row-scan reference: the reference search followed by the
// transform of the table it searched must reproduce runBinning exactly —
// frontiers, losses, suppression and the binned table. Under the
// aggressive rule the reference suppresses rows between its per-column
// searches, while runBinning replays
// the recorded SuppressValues after searching the sketch; both must
// remove the same rows.
func TestSearchTransformEqualsRun(t *testing.T) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1500, Seed: 2, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := crypt.NewCipher([]byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	for _, aggressive := range []bool{false, true} {
		cfg := Config{K: 20, Trees: ontology.Trees(), Aggressive: aggressive}
		binned, run, err := runBinning(tbl, cfg, cipher)
		if err != nil {
			t.Fatal(err)
		}
		search, work, err := searchTable(t.Context(), tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for col, g := range run.UltiGens {
			if !search.UltiGens[col].Equal(g) {
				t.Errorf("aggressive=%v: column %s: search ulti frontier differs from runBinning", aggressive, col)
			}
			if !search.MinGens[col].Equal(run.MinGens[col]) {
				t.Errorf("aggressive=%v: column %s: search min frontier differs from runBinning", aggressive, col)
			}
		}
		if search.AvgLoss != run.AvgLoss || search.EffectiveK != run.EffectiveK || search.Suppressed != run.Suppressed {
			t.Errorf("aggressive=%v: search metrics differ from runBinning", aggressive)
		}
		out, err := TransformContext(t.Context(), work, search.UltiGens, search.EffectiveK, cipher, 0)
		if err != nil {
			t.Fatal(err)
		}
		var a, b strings.Builder
		if err := binned.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := out.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("aggressive=%v: reference search + transform differs from runBinning", aggressive)
		}
		if !aggressive {
			if len(search.SuppressValues) != 0 {
				t.Errorf("conservative search recorded suppressions: %v", search.SuppressValues)
			}
			continue
		}
		// The fixture must keep the replay honest: some rows have to
		// fall.
		if search.Suppressed == 0 {
			t.Fatal("aggressive fixture suppressed nothing; the replay check is vacuous")
		}
	}
}

func TestRunWithEpsilon(t *testing.T) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1000, Seed: 4, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	cipher, _ := crypt.NewCipher([]byte("key"))
	binned, res, err := runBinning(tbl, Config{K: 8, Epsilon: 4, Trees: ontology.Trees()}, cipher)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := anonymity.SatisfiesK(binned, tbl.Schema().QuasiColumns(), 12)
	if !ok {
		t.Error("k+epsilon not enforced")
	}
	if res.EffectiveK != 12 {
		t.Errorf("EffectiveK = %d, want 12", res.EffectiveK)
	}
}

func TestRunWithMetrics(t *testing.T) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1000, Seed: 6, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	cipher, _ := crypt.NewCipher([]byte("key"))
	// Joint k-anonymity over five quasi columns forces most columns near
	// the root (the paper's Figure 11 shows 90%+ multi-attribute loss),
	// so only the age column gets a real bound here; the others stay
	// unconstrained (bound 1).
	metrics := &infoloss.Metrics{
		PerColumn: map[string]float64{ontology.ColAge: 0.6},
		Avg:       1,
	}
	_, res, err := runBinning(tbl, Config{K: 5, Trees: ontology.Trees(), Metrics: metrics}, cipher)
	if err != nil {
		t.Fatal(err)
	}
	for col, l := range res.ColumnLoss {
		if l > metrics.Bound(col)+1e-9 {
			t.Errorf("%s loss %v exceeds metric bound %v", col, l, metrics.Bound(col))
		}
	}
	// The derived age frontier must sit strictly below the root.
	if res.MaxGens[ontology.ColAge].Len() < 2 {
		t.Errorf("age maximal nodes = %v, want a frontier below the root", res.MaxGens[ontology.ColAge])
	}
}

func TestRunValidation(t *testing.T) {
	tbl, _ := datagen.Generate(datagen.Config{Rows: 100, Seed: 1, Correlate: true, ZipfS: 1.2})
	cipher, _ := crypt.NewCipher([]byte("key"))
	if _, _, err := runBinning(tbl, Config{K: 0, Trees: ontology.Trees()}, cipher); err == nil {
		t.Error("K=0 accepted")
	}
	if _, _, err := runBinning(tbl, Config{K: 5, Epsilon: -1, Trees: ontology.Trees()}, cipher); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, _, err := runBinning(tbl, Config{K: 5, Trees: map[string]*dht.Tree{}}, cipher); err == nil {
		t.Error("missing trees accepted")
	}
	if _, _, err := runBinning(tbl, Config{K: 5, Trees: ontology.Trees()}, nil); err == nil {
		t.Error("nil cipher with identifying columns accepted")
	}
}

func TestEpsilonForMark(t *testing.T) {
	bins := map[string]int{"a": 50, "b": 30, "c": 20}
	// s=50, S=100, |wmd|=60 -> eps = ceil(0.5*60) = 30
	if got := EpsilonForMark(bins, 60); got != 30 {
		t.Errorf("EpsilonForMark = %d, want 30", got)
	}
	if got := EpsilonForMark(map[string]int{}, 60); got != 0 {
		t.Errorf("empty bins eps = %d, want 0", got)
	}
}

// BenchmarkTransformContext1M is the transform layer of the write path:
// TransformContext with the k check off over the relation.DefaultChunk
// segments of a million datagen rows (seed 1), as ApplyStream runs it —
// identifier encryption plus generalization to the frontiers of one
// K=20 SearchSketch. Segments, frontiers and cipher are built before
// the timer starts. It reports rows/s and allocations.
func BenchmarkTransformContext1M(b *testing.B) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1000000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	trees := ontology.Trees()
	sk, err := NewSketch(tbl.Schema(), trees)
	if err != nil {
		b.Fatal(err)
	}
	if err := sk.Add(tbl); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	res, err := SearchSketch(ctx, sk, Config{K: 20, Trees: trees})
	if err != nil {
		b.Fatal(err)
	}
	segs := segmentsOf(b, tbl)
	rows := tbl.NumRows()
	tbl = nil
	cipher, err := crypt.NewCipher([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seg := range segs {
			if _, err := TransformContext(ctx, seg, res.UltiGens, 0, cipher, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

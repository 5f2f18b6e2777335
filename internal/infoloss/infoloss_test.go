package infoloss

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dht"
)

// smallTree: R → A → {a1, a2}; R → b.  Leaves: a1, a2, b.
func smallTree(t *testing.T) *dht.Tree {
	t.Helper()
	tree, err := dht.NewCategorical("c", dht.Spec{
		Value: "R",
		Children: []dht.Spec{
			{Value: "A", Children: []dht.Spec{{Value: "a1"}, {Value: "a2"}}},
			{Value: "b"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func numTree(t *testing.T) *dht.Tree {
	t.Helper()
	tree, err := dht.NewNumeric("age", 0, 100, []float64{25, 50, 75})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestLeafHistogram(t *testing.T) {
	tree := smallTree(t)
	hist, err := LeafHistogram(tree, []string{"a1", "a1", "a2", "b", "b", "b"})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := tree.ByValue("a1")
	a2, _ := tree.ByValue("a2")
	b, _ := tree.ByValue("b")
	if hist[a1] != 2 || hist[a2] != 1 || hist[b] != 3 {
		t.Errorf("hist = %v", hist)
	}
	if _, err := LeafHistogram(tree, []string{"nope"}); err == nil {
		t.Error("unknown value accepted")
	}
	if _, err := LeafHistogram(tree, []string{"A"}); err == nil {
		t.Error("internal node accepted as leaf")
	}
}

func TestLeafHistogramNumericRaw(t *testing.T) {
	tree := numTree(t)
	hist, err := LeafHistogram(tree, []string{"10", "24.9", "25", "99"})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := tree.ByValue("[0,25)")
	second, _ := tree.ByValue("[25,50)")
	last, _ := tree.ByValue("[75,100)")
	if hist[first] != 2 || hist[second] != 1 || hist[last] != 1 {
		t.Errorf("hist = %v", hist)
	}
}

func TestSubtreeCounts(t *testing.T) {
	tree := smallTree(t)
	hist, _ := LeafHistogram(tree, []string{"a1", "a1", "a2", "b", "b", "b"})
	sub := SubtreeCounts(tree, hist)
	root := tree.Root()
	a, _ := tree.ByValue("A")
	if sub[root] != 6 {
		t.Errorf("root count = %d, want 6", sub[root])
	}
	if sub[a] != 3 {
		t.Errorf("A count = %d, want 3", sub[a])
	}
}

func TestColumnLossCategoricalEq1(t *testing.T) {
	tree := smallTree(t)
	hist, _ := LeafHistogram(tree, []string{"a1", "a1", "a2", "b", "b", "b"})
	// gen {A, b}: nA=3 with (|S_A|-1)/|S| = 1/3; nb=3 with 0.
	gen, err := dht.NewGenSetFromValues(tree, []string{"A", "b"})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := ColumnLoss(gen, hist)
	if err != nil {
		t.Fatal(err)
	}
	want := (3.0 * (1.0 / 3.0)) / 6.0 // = 1/6
	if math.Abs(loss-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", loss, want)
	}
	// all-leaves: zero loss
	leaf := dht.LeafGenSet(tree)
	loss, _ = ColumnLoss(leaf, hist)
	if loss != 0 {
		t.Errorf("leaf loss = %v, want 0", loss)
	}
	// root: (|S|-1)/|S| = 2/3
	root := dht.RootGenSet(tree)
	loss, _ = ColumnLoss(root, hist)
	if math.Abs(loss-2.0/3.0) > 1e-12 {
		t.Errorf("root loss = %v, want 2/3", loss)
	}
}

func TestColumnLossNumericEq2(t *testing.T) {
	tree := numTree(t)
	hist, _ := LeafHistogram(tree, []string{"10", "30", "60", "90"})
	// Leaves are width-25 intervals: loss = 25/100 = 0.25 for every entry.
	leaf := dht.LeafGenSet(tree)
	loss, err := ColumnLoss(leaf, hist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-0.25) > 1e-12 {
		t.Errorf("leaf loss = %v, want 0.25 (Eq 2 charges interval width)", loss)
	}
	// Mid frontier {[0,50),[50,100)}: 0.5.
	mid, err := dht.NewGenSetFromValues(tree, []string{"[0,50)", "[50,100)"})
	if err != nil {
		t.Fatal(err)
	}
	loss, _ = ColumnLoss(mid, hist)
	if math.Abs(loss-0.5) > 1e-12 {
		t.Errorf("mid loss = %v, want 0.5", loss)
	}
}

func TestColumnLossWeighting(t *testing.T) {
	// Loss weights members by their entry counts n_i.
	tree := numTree(t)
	// 3 entries in [0,25), 1 entry in [50,75): generalize only the right half.
	hist, _ := LeafHistogram(tree, []string{"1", "2", "3", "60"})
	gen, err := dht.NewGenSetFromValues(tree, []string{"[0,25)", "[25,50)", "[50,100)"})
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := ColumnLoss(gen, hist)
	want := (3*0.25 + 0*0.25 + 1*0.5) / 4.0
	if math.Abs(loss-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", loss, want)
	}
}

func TestColumnLossErrors(t *testing.T) {
	tree := smallTree(t)
	gen := dht.LeafGenSet(tree)
	if _, err := ColumnLoss(gen, []int{1, 2}); err == nil {
		t.Error("histogram size mismatch accepted")
	}
	if _, err := ColumnLoss(dht.GenSet{}, nil); err == nil {
		t.Error("zero GenSet accepted")
	}
	// empty histogram: zero loss, no error
	loss, err := ColumnLoss(gen, make([]int, tree.Size()))
	if err != nil || loss != 0 {
		t.Errorf("empty histogram loss = %v, %v", loss, err)
	}
}

func TestNormalizedLoss(t *testing.T) {
	if NormalizedLoss(nil) != 0 {
		t.Error("empty should be 0")
	}
	got := NormalizedLoss([]float64{0.2, 0.4, 0.6})
	if math.Abs(got-0.4) > 1e-12 {
		t.Errorf("NormalizedLoss = %v, want 0.4", got)
	}
}

func TestMetrics(t *testing.T) {
	m := Metrics{PerColumn: map[string]float64{"age": 0.3}, Avg: 0.5}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Bound("age") != 0.3 || m.Bound("zip") != 1 {
		t.Error("Bound wrong")
	}
	if err := m.Check(map[string]float64{"age": 0.2, "zip": 0.6}); err != nil {
		t.Errorf("within-bounds check failed: %v", err)
	}
	if err := m.Check(map[string]float64{"age": 0.31}); err == nil {
		t.Error("per-column violation not caught")
	}
	if err := m.Check(map[string]float64{"age": 0.3, "zip": 0.9}); err == nil {
		t.Error("average violation not caught: avg=0.6 > 0.5")
	}
	bad := Metrics{PerColumn: map[string]float64{"x": 1.5}}
	if err := bad.Validate(); err == nil {
		t.Error("bound > 1 accepted")
	}
	bad2 := Metrics{Avg: -0.1}
	if err := bad2.Validate(); err == nil {
		t.Error("negative avg accepted")
	}
}

func TestDeriveMaxGenCategorical(t *testing.T) {
	tree := smallTree(t)
	hist, _ := LeafHistogram(tree, []string{"a1", "a1", "a2", "b", "b", "b"})
	// Bound 1: root is allowed.
	g, err := DeriveMaxGen(tree, hist, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(dht.RootGenSet(tree)) {
		t.Errorf("bound 1 should keep root, got %v", g)
	}
	// Bound 0: all leaves (zero loss achievable for categorical trees).
	g, err = DeriveMaxGen(tree, hist, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(dht.LeafGenSet(tree)) {
		t.Errorf("bound 0 should reach leaves, got %v", g)
	}
	// Intermediate: root loss = 2/3 ≈ 0.667; frontier {A,b} loss = 1/6.
	g, err = DeriveMaxGen(tree, hist, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dht.NewGenSetFromValues(tree, []string{"A", "b"})
	if !g.Equal(want) {
		t.Errorf("bound 0.2 -> %v, want %v", g, want)
	}
	// Loss at the derived frontier must respect the bound.
	loss, _ := ColumnLoss(g, hist)
	if loss > 0.2 {
		t.Errorf("derived frontier loss %v exceeds bound", loss)
	}
	// Bad bound.
	if _, err := DeriveMaxGen(tree, hist, 1.5); err == nil {
		t.Error("bound > 1 accepted")
	}
}

func TestDeriveMaxGenNumericFloor(t *testing.T) {
	tree := numTree(t)
	hist, _ := LeafHistogram(tree, []string{"10", "30", "60", "90"})
	// Leaf floor is 0.25; an unreachable bound must error.
	if _, err := DeriveMaxGen(tree, hist, 0.1); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("unreachable bound not reported: %v", err)
	}
	// 0.25 exactly reaches the leaf frontier.
	g, err := DeriveMaxGen(tree, hist, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := ColumnLoss(g, hist)
	if loss > 0.25+1e-12 {
		t.Errorf("loss %v exceeds bound", loss)
	}
}

func TestDeriveMaxGenIsMaximalOneStep(t *testing.T) {
	// No member of the derived frontier can be merged into its parent
	// without violating the bound (one-step maximality).
	tree := numTree(t)
	hist, _ := LeafHistogram(tree, []string{"10", "30", "60", "90", "5", "45"})
	bound := 0.3
	g, err := DeriveMaxGen(tree, hist, bound)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.MergeCandidates() {
		merged, err := g.MergeAt(p)
		if err != nil {
			t.Fatal(err)
		}
		loss, _ := ColumnLoss(merged, hist)
		if loss <= bound {
			t.Errorf("merging %q keeps loss %v <= bound %v; frontier not maximal", tree.Value(p), loss, bound)
		}
	}
}

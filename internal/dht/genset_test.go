package dht

import (
	"sort"
	"strings"
	"testing"
)

// fig6 builds the numeric tree of Figure 6 in the paper:
// node ids in the paper: level 0 root(10); level 1: 20,21,22;
// level 2: 30,31,32,33; level 3: 45,46 (children of 32).
// We reproduce the shape (not the labels): root has 3 children; the
// middle child has 2 children, the first of which has 2 children.
func fig6(t *testing.T) *Tree {
	t.Helper()
	tree, err := NewCategorical("fig6", Spec{
		Value: "n10",
		Children: []Spec{
			{Value: "n20", Children: []Spec{
				{Value: "n30"}, {Value: "n31"},
			}},
			{Value: "n21", Children: []Spec{
				{Value: "n32", Children: []Spec{
					{Value: "n45"}, {Value: "n46"},
				}},
				{Value: "n33"},
			}},
			{Value: "n22"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func ids(t *testing.T, tree *Tree, values ...string) []NodeID {
	t.Helper()
	out := make([]NodeID, len(values))
	for i, v := range values {
		id, ok := tree.ByValue(v)
		if !ok {
			t.Fatalf("value %q not found", v)
		}
		out[i] = id
	}
	return out
}

func TestGenSetValidation(t *testing.T) {
	tree := fig6(t)
	// Valid: the minimal generalization of Figure 6.
	if _, err := NewGenSet(tree, ids(t, tree, "n30", "n31", "n45", "n46", "n33", "n22")); err != nil {
		t.Errorf("valid frontier rejected: %v", err)
	}
	// Valid: mixed levels (broader generalization notion of [14]).
	if _, err := NewGenSet(tree, ids(t, tree, "n20", "n32", "n33", "n22")); err != nil {
		t.Errorf("mixed-level frontier rejected: %v", err)
	}
	// Invalid: leaf n22 uncovered.
	if _, err := NewGenSet(tree, ids(t, tree, "n20", "n21")); err == nil {
		t.Error("uncovered leaf accepted")
	}
	// Invalid: double cover (n21 and n45 on the same path).
	if _, err := NewGenSet(tree, ids(t, tree, "n20", "n21", "n45", "n46", "n22")); err == nil {
		t.Error("double cover accepted")
	}
	// Invalid: duplicate member.
	if _, err := NewGenSet(tree, append(ids(t, tree, "n20", "n21", "n22"), ids(t, tree, "n22")...)); err == nil {
		t.Error("duplicate accepted")
	}
	// Invalid: nil tree.
	if _, err := NewGenSet(nil, nil); err == nil {
		t.Error("nil tree accepted")
	}
	// Invalid: foreign node id.
	if _, err := NewGenSet(tree, []NodeID{999}); err == nil {
		t.Error("foreign id accepted")
	}
}

func TestNewGenSetFromValues(t *testing.T) {
	tree := fig6(t)
	g, err := NewGenSetFromValues(tree, []string{"n20", "n21", "n22"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
	if _, err := NewGenSetFromValues(tree, []string{"nope"}); err == nil {
		t.Error("unknown value accepted")
	}
}

func TestLeafAndRootGenSets(t *testing.T) {
	tree := fig6(t)
	leaf := LeafGenSet(tree)
	if leaf.Len() != tree.NumLeaves() {
		t.Errorf("LeafGenSet len = %d, want %d", leaf.Len(), tree.NumLeaves())
	}
	if leaf.SpecificityLoss() != 0 {
		t.Errorf("leaf frontier loss = %v, want 0", leaf.SpecificityLoss())
	}
	root := RootGenSet(tree)
	if root.Len() != 1 || !root.Contains(tree.Root()) {
		t.Error("RootGenSet wrong")
	}
	wantLoss := float64(tree.NumLeaves()-1) / float64(tree.NumLeaves())
	if root.SpecificityLoss() != wantLoss {
		t.Errorf("root loss = %v, want %v", root.SpecificityLoss(), wantLoss)
	}
	if !leaf.AtOrBelow(root) {
		t.Error("leaves must be at-or-below root")
	}
	if root.AtOrBelow(leaf) {
		t.Error("root is not at-or-below leaves")
	}
}

func TestCoverOfAndGeneralizeValue(t *testing.T) {
	tree := fig6(t)
	g, err := NewGenSetFromValues(tree, []string{"n20", "n32", "n33", "n22"})
	if err != nil {
		t.Fatal(err)
	}
	n45, _ := tree.ByValue("n45")
	cover, ok := g.CoverOf(n45)
	if !ok || tree.Value(cover) != "n32" {
		t.Errorf("CoverOf(n45) = %v, %v", cover, ok)
	}
	n30, _ := tree.ByValue("n30")
	cover, ok = g.CoverOf(n30)
	if !ok || tree.Value(cover) != "n20" {
		t.Errorf("CoverOf(n30) = %v, %v", cover, ok)
	}
	// root is above the frontier: no cover
	if _, ok := g.CoverOf(tree.Root()); ok {
		t.Error("root should have no cover")
	}

	got, err := g.GeneralizeValue("n46")
	if err != nil || got != "n32" {
		t.Errorf("GeneralizeValue(n46) = %q, %v", got, err)
	}
	got, err = g.GeneralizeValue("n22")
	if err != nil || got != "n22" {
		t.Errorf("GeneralizeValue(n22) = %q, %v (leaf that is its own generalization node)", got, err)
	}
	if _, err := g.GeneralizeValue("n10"); err == nil {
		t.Error("value above frontier generalized")
	}
	if _, err := g.GeneralizeValue("bogus"); err == nil {
		t.Error("bogus value generalized")
	}
}

func TestAtOrBelowPartialOrder(t *testing.T) {
	tree := fig6(t)
	bottom := LeafGenSet(tree)
	mid, _ := NewGenSetFromValues(tree, []string{"n20", "n32", "n33", "n22"})
	top := RootGenSet(tree)
	if !bottom.AtOrBelow(mid) || !mid.AtOrBelow(top) || !bottom.AtOrBelow(top) {
		t.Error("chain ordering broken")
	}
	if mid.AtOrBelow(bottom) || top.AtOrBelow(mid) {
		t.Error("reverse ordering should fail")
	}
	// reflexive
	if !mid.AtOrBelow(mid) {
		t.Error("AtOrBelow must be reflexive")
	}
	// incomparable pair
	a, _ := NewGenSetFromValues(tree, []string{"n20", "n21", "n22"})
	b, _ := NewGenSetFromValues(tree, []string{"n30", "n31", "n21", "n22"})
	if !b.AtOrBelow(a) {
		t.Error("b refines a only at n20; should be below")
	}
	c, _ := NewGenSetFromValues(tree, []string{"n20", "n32", "n33", "n22"})
	if c.AtOrBelow(b) || b.AtOrBelow(c) {
		t.Error("b and c are incomparable")
	}
}

func TestSplitAndMerge(t *testing.T) {
	tree := fig6(t)
	g, _ := NewGenSetFromValues(tree, []string{"n20", "n21", "n22"})
	n21, _ := tree.ByValue("n21")
	split, err := g.SplitAt(n21)
	if err != nil {
		t.Fatal(err)
	}
	wantVals := map[string]bool{"n20": true, "n32": true, "n33": true, "n22": true}
	for _, v := range split.Values() {
		if !wantVals[v] {
			t.Errorf("unexpected member %q after split", v)
		}
	}
	if split.Len() != 4 {
		t.Errorf("split Len = %d", split.Len())
	}
	// merging back
	merged, err := split.MergeAt(n21)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(g) {
		t.Errorf("merge(split) != original: %v vs %v", merged, g)
	}
	// split a leaf member fails
	n22, _ := tree.ByValue("n22")
	if _, err := g.SplitAt(n22); err == nil {
		t.Error("split leaf accepted")
	}
	// split non-member fails
	n30, _ := tree.ByValue("n30")
	if _, err := g.SplitAt(n30); err == nil {
		t.Error("split non-member accepted")
	}
	// merge with missing child fails
	if _, err := g.MergeAt(n21); err == nil {
		t.Error("merge with non-member children accepted")
	}
	// merge at leaf fails
	if _, err := g.MergeAt(n22); err == nil {
		t.Error("merge at leaf accepted")
	}
}

func TestMergeCandidates(t *testing.T) {
	tree := fig6(t)
	bottom := LeafGenSet(tree)
	cands := bottom.MergeCandidates()
	var vals []string
	for _, c := range cands {
		vals = append(vals, tree.Value(c))
	}
	sort.Strings(vals)
	// from all-leaves, the mergeable parents are n20 (children n30,n31)
	// and n32 (children n45,n46); n21's children include internal n32.
	want := []string{"n20", "n32"}
	if strings.Join(vals, ",") != strings.Join(want, ",") {
		t.Errorf("MergeCandidates = %v, want %v", vals, want)
	}
}

func TestEnumerateBetweenFigure6(t *testing.T) {
	// The paper enumerates exactly six allowable generalizations between
	// the minimal nodes {30,31,45,46,33,22} and maximal nodes {20,21,22}:
	// {30,31,45,46,33,22}, {30,31,32,33,22}, {30,31,21,22},
	// {20,45,46,33,22}, {20,32,33,22}, {20,21,22}.
	tree := fig6(t)
	lower, err := NewGenSetFromValues(tree, []string{"n30", "n31", "n45", "n46", "n33", "n22"})
	if err != nil {
		t.Fatal(err)
	}
	upper, err := NewGenSetFromValues(tree, []string{"n20", "n21", "n22"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = EnumerateBetween(lower, upper, func(g GenSet) bool {
		vals := g.Values()
		sort.Strings(vals)
		got = append(got, strings.Join(vals, "+"))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("enumerated %d generalizations, want 6 (paper, Figure 6): %v", len(got), got)
	}
	want := map[string]bool{
		"n22+n30+n31+n33+n45+n46": true,
		"n22+n30+n31+n32+n33":     true,
		"n21+n22+n30+n31":         true,
		"n20+n22+n33+n45+n46":     true,
		"n20+n22+n32+n33":         true,
		"n20+n21+n22":             true,
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected generalization %s", g)
		}
		delete(want, g)
	}
	for g := range want {
		t.Errorf("missing generalization %s", g)
	}
}

func TestEnumerateBetweenEarlyStopAndCount(t *testing.T) {
	tree := fig6(t)
	lower, _ := NewGenSetFromValues(tree, []string{"n30", "n31", "n45", "n46", "n33", "n22"})
	upper, _ := NewGenSetFromValues(tree, []string{"n20", "n21", "n22"})
	calls := 0
	err := EnumerateBetween(lower, upper, func(GenSet) bool {
		calls++
		return calls < 3
	})
	if err != nil || calls != 3 {
		t.Errorf("early stop: calls=%d err=%v", calls, err)
	}
	n, err := CountBetween(lower, upper, 0)
	if err != nil || n != 6 {
		t.Errorf("CountBetween = %d, %v; want 6", n, err)
	}
	n, err = CountBetween(lower, upper, 4)
	if err != nil || n != 4 {
		t.Errorf("CountBetween limited = %d, %v; want 4", n, err)
	}
}

func TestEnumerateBetweenDegenerate(t *testing.T) {
	tree := fig6(t)
	g, _ := NewGenSetFromValues(tree, []string{"n20", "n21", "n22"})
	// lower == upper: exactly one frontier.
	n, err := CountBetween(g, g, 0)
	if err != nil || n != 1 {
		t.Errorf("CountBetween(g,g) = %d, %v", n, err)
	}
	// full lattice between leaves and root
	total, err := CountBetween(LeafGenSet(tree), RootGenSet(tree), 0)
	if err != nil {
		t.Fatal(err)
	}
	// frontiers(n20)=2, frontiers(n32)=2 => frontiers(n21)=1+2*1=3,
	// frontiers(n22)=1 => root: 1 + 2*3*1 = 7.
	if total != 7 {
		t.Errorf("full lattice count = %d, want 7", total)
	}
}

func TestEnumerateBetweenBadBounds(t *testing.T) {
	tree := fig6(t)
	other := fig6(t)
	lower := LeafGenSet(tree)
	upper := RootGenSet(other)
	if err := EnumerateBetween(lower, upper, func(GenSet) bool { return true }); err == nil {
		t.Error("cross-tree bounds accepted")
	}
	// reversed bounds
	if err := EnumerateBetween(RootGenSet(tree), LeafGenSet(tree), func(GenSet) bool { return true }); err == nil {
		t.Error("reversed bounds accepted")
	}
}

// Property over the full lattice: every enumerated frontier is valid,
// within bounds, and unique.
func TestEnumerateAllValidAndUnique(t *testing.T) {
	tree := fig6(t)
	lower := LeafGenSet(tree)
	upper := RootGenSet(tree)
	seen := make(map[string]bool)
	err := EnumerateBetween(lower, upper, func(g GenSet) bool {
		if !lower.AtOrBelow(g) || !g.AtOrBelow(upper) {
			t.Errorf("frontier %v out of bounds", g)
		}
		key := g.String()
		if seen[key] {
			t.Errorf("duplicate frontier %s", key)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGenSetStringAndZero(t *testing.T) {
	var zero GenSet
	if zero.tree != nil || zero.String() != "{}" {
		t.Error("zero GenSet misbehaves")
	}
	tree := fig6(t)
	g, _ := NewGenSetFromValues(tree, []string{"n20", "n21", "n22"})
	if g.tree == nil {
		t.Error("non-zero reported zero")
	}
	s := g.String()
	if !strings.Contains(s, "n20") || !strings.HasPrefix(s, "{") {
		t.Errorf("String = %q", s)
	}
}

package dht

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// paperFig1 builds a role tree shaped like Figure 1 of the paper:
// Person is the root; leaves are specific roles at mixed depths.
func paperFig1(t *testing.T) *Tree {
	t.Helper()
	tree, err := NewCategorical("doctor", Spec{
		Value: "Person",
		Children: []Spec{
			{Value: "Medical Staff", Children: []Spec{
				{Value: "Doctor", Children: []Spec{
					{Value: "Physician"}, {Value: "Surgeon"}, {Value: "Radiologist"},
				}},
				{Value: "Paramedic", Children: []Spec{
					{Value: "Pharmacist"}, {Value: "Nurse"}, {Value: "Consultant"},
				}},
			}},
			{Value: "Admin Staff", Children: []Spec{
				{Value: "Clerk"}, {Value: "Manager"},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestCategoricalShape(t *testing.T) {
	tree := paperFig1(t)
	if tree.Attr() != "doctor" {
		t.Errorf("Attr = %q", tree.Attr())
	}
	if tree.Numeric() {
		t.Error("categorical tree reported numeric")
	}
	if tree.Size() != 13 {
		t.Errorf("Size = %d, want 13", tree.Size())
	}
	if got := tree.NumLeaves(); got != 8 {
		t.Errorf("NumLeaves = %d, want 8", got)
	}
	if h := height(tree); h != 3 {
		t.Errorf("height = %d, want 3", h)
	}
	root := tree.Root()
	if tree.Value(root) != "Person" || tree.Parent(root) != None {
		t.Error("root wrong")
	}
}

// height is the depth of the tree's deepest leaf.
func height(tree *Tree) int {
	h := 0
	for _, l := range tree.Leaves() {
		h = max(h, tree.Node(l).Depth)
	}
	return h
}

func TestCategoricalRejectsDuplicatesAndEmpty(t *testing.T) {
	_, err := NewCategorical("x", Spec{Value: "A", Children: []Spec{{Value: "A"}}})
	if err == nil {
		t.Error("expected duplicate-value error")
	}
	_, err = NewCategorical("x", Spec{Value: "  "})
	if err == nil {
		t.Error("expected empty-value error")
	}
}

func TestParentChildrenSiblings(t *testing.T) {
	tree := paperFig1(t)
	nurse, ok := tree.ByValue("Nurse")
	if !ok {
		t.Fatal("Nurse not found")
	}
	paramedic := tree.Parent(nurse)
	if tree.Value(paramedic) != "Paramedic" {
		t.Fatalf("parent of Nurse = %q", tree.Value(paramedic))
	}
	ch := tree.Children(paramedic)
	if len(ch) != 3 {
		t.Fatalf("Paramedic children = %d, want 3", len(ch))
	}
	sib := tree.SortedSiblings(nurse)
	if len(sib) != 3 {
		t.Fatalf("Siblings(Nurse) = %d nodes, want 3 (nd together with its siblings)", len(sib))
	}
	found := false
	for _, s := range sib {
		if s == nurse {
			found = true
		}
	}
	if !found {
		t.Error("Siblings must include the node itself")
	}
	// Root's sibling set is itself.
	rs := tree.SortedSiblings(tree.Root())
	if len(rs) != 1 || rs[0] != tree.Root() {
		t.Error("Siblings(root) must be {root}")
	}
}

func TestSortedSiblingsCanonicalOrder(t *testing.T) {
	tree := paperFig1(t)
	nurse, _ := tree.ByValue("Nurse")
	sorted := tree.SortedSiblings(nurse)
	want := []string{"Consultant", "Nurse", "Pharmacist"}
	for i, id := range sorted {
		if tree.Value(id) != want[i] {
			t.Fatalf("sorted sibling %d = %q, want %q", i, tree.Value(id), want[i])
		}
	}
}

func TestLeavesUnderAndCounts(t *testing.T) {
	tree := paperFig1(t)
	med, _ := tree.ByValue("Medical Staff")
	if got := tree.NumLeavesUnder(med); got != 6 {
		t.Errorf("NumLeavesUnder(Medical Staff) = %d, want 6", got)
	}
	leaves := tree.LeavesUnder(med)
	if len(leaves) != 6 {
		t.Errorf("LeavesUnder = %d leaves", len(leaves))
	}
	for _, l := range leaves {
		if !tree.Node(l).IsLeaf() {
			t.Errorf("%q is not a leaf", tree.Value(l))
		}
		if !tree.IsAncestorOrSelf(med, l) {
			t.Errorf("%q not under Medical Staff", tree.Value(l))
		}
	}
}

func TestIsAncestorOrSelf(t *testing.T) {
	tree := paperFig1(t)
	nurse, _ := tree.ByValue("Nurse")
	para, _ := tree.ByValue("Paramedic")
	admin, _ := tree.ByValue("Admin Staff")
	if !tree.IsAncestorOrSelf(para, nurse) {
		t.Error("Paramedic should be ancestor of Nurse")
	}
	if !tree.IsAncestorOrSelf(nurse, nurse) {
		t.Error("self should count")
	}
	if tree.IsAncestorOrSelf(nurse, para) {
		t.Error("Nurse is not ancestor of Paramedic")
	}
	if tree.IsAncestorOrSelf(admin, nurse) {
		t.Error("Admin Staff is not ancestor of Nurse")
	}
}

func TestPathUpAndAncestorAtDepth(t *testing.T) {
	tree := paperFig1(t)
	nurse, _ := tree.ByValue("Nurse")
	var path []NodeID
	for cur := nurse; cur != None; cur = tree.Parent(cur) {
		path = append(path, cur)
	}
	if len(path) != 4 {
		t.Fatalf("path up length = %d, want 4", len(path))
	}
	if path[len(path)-1] != tree.Root() {
		t.Error("path up does not end at the root")
	}
	at1, err := tree.AncestorAtDepth(nurse, 1)
	if err != nil || tree.Value(at1) != "Medical Staff" {
		t.Errorf("AncestorAtDepth(Nurse,1) = %q, %v", tree.Value(at1), err)
	}
	if _, err := tree.AncestorAtDepth(nurse, 9); err == nil {
		t.Error("expected depth error")
	}
}

func TestNumericTreeFigure3(t *testing.T) {
	// Figure 3 of the paper: Age domain [0,150) — here 6 leaf intervals.
	tree, err := NewNumeric("age", 0, 150, []float64{25, 50, 75, 100, 125})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Numeric() {
		t.Error("not numeric")
	}
	if tree.NumLeaves() != 6 {
		t.Fatalf("NumLeaves = %d, want 6", tree.NumLeaves())
	}
	root := tree.Node(tree.Root())
	if root.Lo != 0 || root.Hi != 150 {
		t.Errorf("root interval [%v,%v), want [0,150)", root.Lo, root.Hi)
	}
	if root.Value != "[0,150)" {
		t.Errorf("root value %q", root.Value)
	}
	// Binary pairwise combination of 6 leaves: 6 -> 3 -> 1(ternary).
	if len(root.Children) != 3 {
		t.Errorf("root has %d children, want 3 (6->3->ternary root)", len(root.Children))
	}
}

func TestNumericNoSingleChildNodes(t *testing.T) {
	for _, nLeaves := range []int{2, 3, 4, 5, 6, 7, 9, 12, 30, 31} {
		cuts := make([]float64, nLeaves-1)
		for i := range cuts {
			cuts[i] = float64(i + 1)
		}
		tree, err := NewNumeric("x", 0, float64(nLeaves), cuts)
		if err != nil {
			t.Fatalf("n=%d: %v", nLeaves, err)
		}
		for i := 0; i < tree.Size(); i++ {
			n := tree.Node(NodeID(i))
			if len(n.Children) == 1 {
				t.Errorf("n=%d: node %q has a single child", nLeaves, n.Value)
			}
		}
		if tree.NumLeaves() != nLeaves {
			t.Errorf("n=%d: leaves = %d", nLeaves, tree.NumLeaves())
		}
	}
}

func TestNumericRejectsBadCuts(t *testing.T) {
	cases := [][]float64{
		{0},      // not strictly inside
		{150},    // equals hi
		{50, 50}, // not increasing
		{80, 20}, // decreasing
		{-5},     // below lo
		{151},    // above hi
	}
	for _, cuts := range cases {
		if _, err := NewNumeric("age", 0, 150, cuts); err == nil {
			t.Errorf("cuts %v accepted", cuts)
		}
	}
	if _, err := NewNumeric("age", 10, 10, nil); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestNewNumericUniform(t *testing.T) {
	tree, err := NewNumericUniform("age", 0, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 30 {
		t.Fatalf("NumLeaves = %d, want 30", tree.NumLeaves())
	}
	if _, err := NewNumericUniform("age", 0, 150, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestLocateNumericAndResolve(t *testing.T) {
	tree, err := NewNumeric("age", 0, 150, []float64{25, 50, 75, 100, 125})
	if err != nil {
		t.Fatal(err)
	}
	id, err := tree.LocateNumeric(37)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Value(id) != "[25,50)" {
		t.Errorf("Locate(37) = %q, want [25,50)", tree.Value(id))
	}
	// Boundary: lower bound inclusive, upper exclusive.
	id, _ = tree.LocateNumeric(25)
	if tree.Value(id) != "[25,50)" {
		t.Errorf("Locate(25) = %q", tree.Value(id))
	}
	id, _ = tree.LocateNumeric(0)
	if tree.Value(id) != "[0,25)" {
		t.Errorf("Locate(0) = %q", tree.Value(id))
	}
	if _, err := tree.LocateNumeric(150); err == nil {
		t.Error("Locate(150) should fail: domain is half-open")
	}
	if _, err := tree.LocateNumeric(-1); err == nil {
		t.Error("Locate(-1) should fail")
	}

	// ResolveValue: raw number, interval value, garbage.
	if id, err := tree.ResolveValue("37"); err != nil || tree.Value(id) != "[25,50)" {
		t.Errorf("ResolveValue(37) = %v, %v", id, err)
	}
	if id, err := tree.ResolveValue("[0,50)"); err != nil || tree.Value(id) == "" {
		t.Errorf("ResolveValue([0,50)) = %v, %v", id, err)
	}
	if _, err := tree.ResolveValue("not-a-number"); err == nil {
		t.Error("garbage resolved")
	}

	// ResolveLeaf rejects internal nodes.
	if _, err := tree.ResolveLeaf("[0,50)"); err == nil {
		t.Error("internal node accepted as leaf")
	}
	if _, err := tree.ResolveLeaf("42"); err != nil {
		t.Errorf("ResolveLeaf(42): %v", err)
	}
}

func TestResolveValueCategorical(t *testing.T) {
	tree := paperFig1(t)
	if _, err := tree.ResolveValue("Nurse"); err != nil {
		t.Error(err)
	}
	if _, err := tree.ResolveValue("Astronaut"); err == nil {
		t.Error("unknown value resolved")
	}
	if _, err := tree.LocateNumeric(5); err == nil {
		t.Error("LocateNumeric on categorical tree must fail")
	}
}

// TestIntervalValueRoundtrip: every node of a numeric tree is named by
// IntervalValue of its bounds and resolves back from that name; strings
// that are not a node's interval value resolve to no node.
func TestIntervalValueRoundtrip(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		want   string
	}{{0, 150, "[0,150)"}, {25, 50, "[25,50)"}, {0.5, 1.25, "[0.5,1.25)"}, {-10, 10, "[-10,10)"}} {
		if got := IntervalValue(c.lo, c.hi); got != c.want {
			t.Errorf("IntervalValue(%v, %v) = %q, want %q", c.lo, c.hi, got, c.want)
		}
	}
	tree, err := NewNumeric("age", 0, 150, []float64{25, 50, 75, 100, 125})
	if err != nil {
		t.Fatal(err)
	}
	for id := NodeID(0); int(id) < tree.Size(); id++ {
		n := tree.Node(id)
		v := IntervalValue(n.Lo, n.Hi)
		if v != n.Value {
			t.Errorf("node %d: IntervalValue = %q, value %q", id, v, n.Value)
		}
		if got, err := tree.ResolveValue(v); err != nil || got != id {
			t.Errorf("ResolveValue(%q) = %d, %v; want %d", v, got, err, id)
		}
	}
	for _, bad := range []string{"", "[0,25]", "(0,25)", "[x,25)", "[0;25)", "[0,y)"} {
		if _, err := tree.ResolveValue(bad); err == nil {
			t.Errorf("ResolveValue(%q) accepted", bad)
		}
	}
}

func TestDocRoundtrip(t *testing.T) {
	cat := paperFig1(t)
	num, err := NewNumeric("age", 0, 150, []float64{25, 50, 75, 100, 125})
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*Tree{cat, num} {
		data, err := tree.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseTree(data)
		if err != nil {
			t.Fatalf("%s: %v", tree.Attr(), err)
		}
		if back.Size() != tree.Size() || back.NumLeaves() != tree.NumLeaves() ||
			back.Attr() != tree.Attr() || back.Numeric() != tree.Numeric() {
			t.Errorf("%s: roundtrip shape mismatch", tree.Attr())
		}
		for i := 0; i < tree.Size(); i++ {
			if back.Value(NodeID(i)) != tree.Value(NodeID(i)) {
				t.Errorf("%s: node %d value %q != %q", tree.Attr(), i, back.Value(NodeID(i)), tree.Value(NodeID(i)))
			}
		}
	}
}

func TestFromDocRejectsBrokenNumeric(t *testing.T) {
	// children leave a gap
	d := Doc{Attr: "age", Numeric: true, Root: Spec{
		Value: "[0,10)", Lo: 0, Hi: 10,
		Children: []Spec{
			{Value: "[0,4)", Lo: 0, Hi: 4},
			{Value: "[5,10)", Lo: 5, Hi: 10},
		},
	}}
	if _, err := FromDoc(d); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap not detected: %v", err)
	}
	// value/interval mismatch
	d2 := Doc{Attr: "age", Numeric: true, Root: Spec{Value: "[0,9)", Lo: 0, Hi: 10}}
	if _, err := FromDoc(d2); err == nil {
		t.Error("value/interval mismatch not detected")
	}
	// children fall short of parent's upper bound
	d3 := Doc{Attr: "age", Numeric: true, Root: Spec{
		Value: "[0,10)", Lo: 0, Hi: 10,
		Children: []Spec{
			{Value: "[0,4)", Lo: 0, Hi: 4},
			{Value: "[4,8)", Lo: 4, Hi: 8},
		},
	}}
	if _, err := FromDoc(d3); err == nil {
		t.Error("short children not detected")
	}
}

func TestParseTreeBadJSON(t *testing.T) {
	if _, err := ParseTree([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestParseTreeStrict pins the strict decode: a document with a field
// the Doc has no place for, at the top or in a node, or with trailing
// data, is refused; the same document without it parses.
func TestParseTreeStrict(t *testing.T) {
	good := `{"attr":"doctor","root":{"value":"any","children":[{"value":"a"},{"value":"b"}]}}`
	if _, err := ParseTree([]byte(good)); err != nil {
		t.Fatalf("good doc: %v", err)
	}
	for name, doc := range map[string]string{
		"extra field":      `{"attr":"doctor","version":2,"root":{"value":"any","children":[{"value":"a"},{"value":"b"}]}}`,
		"extra node field": `{"attr":"doctor","root":{"value":"any","children":[{"value":"a","weight":1},{"value":"b"}]}}`,
		"trailing data":    good + `{}`,
	} {
		if _, err := ParseTree([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: for random numeric trees, every interior node's children
// partition its interval, and every in-domain value locates to exactly
// one leaf whose interval contains it.
func TestQuickNumericPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(nCutsRaw uint8, seed int64) bool {
		nCuts := int(nCutsRaw)%40 + 1
		r := rand.New(rand.NewSource(seed))
		cutSet := make(map[float64]bool)
		for len(cutSet) < nCuts {
			c := float64(r.Intn(148) + 1)
			cutSet[c] = true
		}
		cuts := make([]float64, 0, nCuts)
		for c := range cutSet {
			cuts = append(cuts, c)
		}
		// sort ascending
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}
		tree, err := NewNumeric("x", 0, 150, cuts)
		if err != nil {
			return false
		}
		if err := tree.validateIntervals(tree.Root()); err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			x := r.Float64() * 150
			leaf, err := tree.LocateNumeric(x)
			if err != nil {
				return false
			}
			n := tree.Node(leaf)
			if !(x >= n.Lo && x < n.Hi) || !n.IsLeaf() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: numLeavesUnder is consistent with LeavesUnder for all nodes.
func TestLeafCountConsistency(t *testing.T) {
	trees := []*Tree{paperFig1(t)}
	num, _ := NewNumeric("age", 0, 150, []float64{10, 20, 40, 80, 120, 140})
	trees = append(trees, num)
	for _, tree := range trees {
		for i := 0; i < tree.Size(); i++ {
			id := NodeID(i)
			if got, want := tree.NumLeavesUnder(id), len(tree.LeavesUnder(id)); got != want {
				t.Errorf("%s node %q: NumLeavesUnder=%d, len(LeavesUnder)=%d",
					tree.Attr(), tree.Value(id), got, want)
			}
		}
	}
}

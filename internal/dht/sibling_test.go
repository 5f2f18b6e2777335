package dht

import (
	"slices"
	"strings"
	"testing"
)

// TestSiblingRankMatchesSortedSiblings pins the precomputed rank/count
// tables against the sorting definition they replace in the detection
// hot path, over every node of a representative tree.
func TestSiblingRankMatchesSortedSiblings(t *testing.T) {
	tree, err := NewCategorical("role", Spec{
		Value: "any",
		Children: []Spec{
			{Value: "clinical", Children: []Spec{
				{Value: "doctor"}, {Value: "nurse"}, {Value: "surgeon"},
			}},
			{Value: "admin", Children: []Spec{
				{Value: "clerk"}, {Value: "manager"},
			}},
			{Value: "solo"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := NodeID(0); int(id) < tree.Size(); id++ {
		sorted := tree.SortedSiblings(id)
		if got, want := tree.NumSiblings(id), len(sorted); got != want {
			t.Errorf("node %s: NumSiblings = %d, want %d", tree.Value(id), got, want)
		}
		if got, want := tree.SiblingRank(id), indexOf(id, sorted); got != want {
			t.Errorf("node %s: SiblingRank = %d, want %d", tree.Value(id), got, want)
		}
	}
	if tree.NumSiblings(tree.Root()) != 1 || tree.SiblingRank(tree.Root()) != 0 {
		t.Error("root must be its own sole sibling at rank 0")
	}
}

// TestSortedChildrenPrecomputed pins SortedChildren against the
// value-sorted Children it replaced, and checks that the embed walk's
// per-level call neither sorts nor allocates.
func TestSortedChildrenPrecomputed(t *testing.T) {
	tree, err := NewCategorical("role", Spec{
		Value: "any",
		Children: []Spec{
			{Value: "solo"},
			{Value: "clinical", Children: []Spec{
				{Value: "surgeon"}, {Value: "doctor"}, {Value: "nurse"},
			}},
			{Value: "admin", Children: []Spec{
				{Value: "manager"}, {Value: "clerk"},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := NodeID(0); int(id) < tree.Size(); id++ {
		want := slices.Clone(tree.Children(id))
		slices.SortFunc(want, func(a, b NodeID) int { return strings.Compare(tree.Value(a), tree.Value(b)) })
		if got := tree.SortedChildren(id); !slices.Equal(got, want) {
			t.Errorf("node %s: SortedChildren = %v, want %v", tree.Value(id), got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = tree.SortedChildren(tree.Root()) }); n != 0 {
		t.Errorf("SortedChildren allocates %v times per call, want 0", n)
	}
}

func indexOf(id NodeID, s []NodeID) int {
	for i, v := range s {
		if v == id {
			return i
		}
	}
	return -1
}

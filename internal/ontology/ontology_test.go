package ontology

import (
	"slices"
	"testing"

	"repro/internal/dht"
	"repro/internal/relation"
)

// height is the depth of a tree's deepest leaf.
func height(tree *dht.Tree) int {
	h := 0
	for _, l := range tree.Leaves() {
		h = max(h, tree.Node(l).Depth)
	}
	return h
}

func TestSchemaShape(t *testing.T) {
	s := Schema()
	if s.NumColumns() != 6 {
		t.Fatalf("NumColumns = %d, want 6", s.NumColumns())
	}
	if got := s.IdentColumns(); len(got) != 1 || got[0] != ColSSN {
		t.Errorf("IdentColumns = %v", got)
	}
	if got := s.QuasiColumns(); len(got) != 5 {
		t.Errorf("QuasiColumns = %v, want 5 columns", got)
	}
	i, err := s.Index(ColAge)
	if err != nil || s.Column(i).Kind != relation.QuasiNumeric {
		t.Error("age must be quasi-numeric")
	}
}

func TestTreesCoverAllQuasiColumns(t *testing.T) {
	trees := Trees()
	for _, col := range Schema().QuasiColumns() {
		tree, ok := trees[col]
		if !ok {
			t.Errorf("no tree for %s", col)
			continue
		}
		if tree.Attr() != col {
			t.Errorf("tree for %s has Attr %q", col, tree.Attr())
		}
	}
	if len(trees) != 5 {
		t.Errorf("Trees returned %d entries", len(trees))
	}
}

func TestAgeTree(t *testing.T) {
	tree := Age()
	if !tree.Numeric() {
		t.Fatal("age tree must be numeric")
	}
	if tree.NumLeaves() != 30 {
		t.Errorf("age leaves = %d, want 30 (5-year bins over [0,150))", tree.NumLeaves())
	}
	leaf, err := tree.LocateNumeric(37)
	if err != nil || tree.Value(leaf) != "[35,40)" {
		t.Errorf("Locate(37) = %v, %v", tree.Value(leaf), err)
	}
}

func TestZipTreeShape(t *testing.T) {
	tree := Zip()
	if tree.NumLeaves() != 108 {
		t.Errorf("zip leaves = %d, want 108", tree.NumLeaves())
	}
	if height(tree) != 4 {
		t.Errorf("zip height = %d, want 4", height(tree))
	}
	id, ok := tree.ByValue("10001")
	if !ok {
		t.Fatal("10001 missing")
	}
	// 10001 -> 100** -> NY -> Northeast -> USA
	wantPath := []string{"10001", "100**", "NY", "Northeast", "USA"}
	var path []string
	for nd := id; nd != dht.None; nd = tree.Parent(nd) {
		path = append(path, tree.Value(nd))
	}
	if !slices.Equal(path, wantPath) {
		t.Errorf("path up = %q, want %q", path, wantPath)
	}
}

func TestDoctorTreeShape(t *testing.T) {
	tree := Doctor()
	if tree.Value(tree.Root()) != "Person" {
		t.Errorf("root = %q", tree.Value(tree.Root()))
	}
	for _, leaf := range []string{"Cardiologist", "Nurse", "Clerk", "Lab Technician"} {
		if _, ok := tree.ByValue(leaf); !ok {
			t.Errorf("leaf %q missing", leaf)
		}
	}
	// Figure 1 flavor: Pharmacist/Nurse/Consultant under Paramedic.
	nurse, _ := tree.ByValue("Nurse")
	if tree.Value(tree.Parent(nurse)) != "Paramedic" {
		t.Errorf("Nurse parent = %q, want Paramedic", tree.Value(tree.Parent(nurse)))
	}
}

func TestSymptomTreeShape(t *testing.T) {
	tree := Symptom()
	if height(tree) != 3 {
		t.Errorf("symptom height = %d, want 3 (chapter/sub/condition)", height(tree))
	}
	if tree.NumLeaves() < 100 {
		t.Errorf("symptom leaves = %d, want >= 100 (ICD-9-like coverage)", tree.NumLeaves())
	}
	chapters := tree.Children(tree.Root())
	if len(chapters) != 12 {
		t.Errorf("chapters = %d, want 12", len(chapters))
	}
	// every chapter must map to a prescription class for correlation
	for _, ch := range chapters {
		if _, ok := SymptomChapterToPrescriptionClass[tree.Value(ch)]; !ok {
			t.Errorf("chapter %q has no prescription class mapping", tree.Value(ch))
		}
	}
	if _, ok := tree.ByValue("250 Diabetes mellitus"); !ok {
		t.Error("diabetes leaf missing")
	}
}

func TestPrescriptionTreeShape(t *testing.T) {
	tree := Prescription()
	if height(tree) != 3 {
		t.Errorf("prescription height = %d, want 3", height(tree))
	}
	if tree.NumLeaves() < 60 {
		t.Errorf("prescription leaves = %d, want >= 60", tree.NumLeaves())
	}
	metformin, ok := tree.ByValue("Metformin")
	if !ok {
		t.Fatal("Metformin missing")
	}
	if tree.Value(tree.Parent(metformin)) != "Antidiabetics" {
		t.Errorf("Metformin parent = %q", tree.Value(tree.Parent(metformin)))
	}
	// every mapped class must exist
	for _, class := range SymptomChapterToPrescriptionClass {
		if _, ok := tree.ByValue(class); !ok {
			t.Errorf("mapped class %q not in tree", class)
		}
	}
}

// All builtin trees must have enough branching for watermark bandwidth:
// sibling sets of size >= 2 along most paths.
func TestBuiltinTreesBranching(t *testing.T) {
	for col, tree := range Trees() {
		single := 0
		for i := 0; i < tree.Size(); i++ {
			if len(tree.Children(dht.NodeID(i))) == 1 {
				single++
			}
		}
		if single > 0 {
			t.Errorf("%s: %d single-child nodes (zero-bandwidth levels)", col, single)
		}
	}
}

// All builtin trees must round-trip through the JSON codec (the CLI
// serializes them for users to extend).
func TestBuiltinTreesJSONRoundtrip(t *testing.T) {
	for col, tree := range Trees() {
		data, err := tree.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		back, err := dht.ParseTree(data)
		if err != nil {
			t.Fatalf("%s: %v", col, err)
		}
		if back.Size() != tree.Size() || back.NumLeaves() != tree.NumLeaves() {
			t.Errorf("%s: roundtrip shape changed", col)
		}
	}
}

package linkage

import (
	"testing"

	"repro/internal/anonymity"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

func smallTrees(t *testing.T) map[string]*dht.Tree {
	t.Helper()
	age, err := dht.NewNumeric("age", 0, 80, []float64{20, 40, 60})
	if err != nil {
		t.Fatal(err)
	}
	zip, err := dht.NewCategorical("zip", dht.Spec{
		Value: "ALL",
		Children: []dht.Spec{
			{Value: "North", Children: []dht.Spec{{Value: "Z1"}, {Value: "Z2"}}},
			{Value: "South", Children: []dht.Spec{{Value: "Z3"}, {Value: "Z4"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dht.Tree{"age": age, "zip": zip}
}

func mkTable(t *testing.T, rows [][]string) *relation.Table {
	t.Helper()
	tbl := relation.NewTable(relation.MustSchema(
		relation.Column{Name: "ssn", Kind: relation.Identifying},
		relation.Column{Name: "age", Kind: relation.QuasiNumeric},
		relation.Column{Name: "zip", Kind: relation.QuasiCategorical},
	))
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAttackOnRawDataReIdentifies(t *testing.T) {
	trees := smallTrees(t)
	// Published: de-identified (SSN replaced) but quasi columns raw.
	published := mkTable(t, [][]string{
		{"x1", "25", "Z1"}, // unique (25, Z1)
		{"x2", "25", "Z2"},
		{"x3", "45", "Z3"},
		{"x4", "45", "Z3"}, // two people share (45, Z3) in the external data? No: see external
	})
	external := mkTable(t, [][]string{
		{"alice", "25", "Z1"},
		{"bob", "25", "Z2"},
		{"carol", "45", "Z3"},
		{"dave", "47", "Z3"},
	})
	res, err := Attack(published, external, []string{"age", "zip"}, trees)
	if err != nil {
		t.Fatal(err)
	}
	// (25,Z1)->alice, (25,Z2)->bob, (45,Z3)->carol (dave is 47: same leaf
	// [40,60) though! ResolveValue on published "45" gives leaf [40,60);
	// external 45 and 47 both land there -> 2 candidates).
	if res.ReIdentified != 2 {
		t.Errorf("re-identified = %d, want 2 (alice and bob pinned): %s", res.ReIdentified, res)
	}
	if res.Matched != 4 {
		t.Errorf("matched = %d, want 4", res.Matched)
	}
	if res.MinCandidates != 1 {
		t.Errorf("min candidates = %d", res.MinCandidates)
	}
}

func TestAttackOnGeneralizedDataBlunted(t *testing.T) {
	trees := smallTrees(t)
	// Published after binning: age to [0,40)/[40,80), zip to regions.
	published := mkTable(t, [][]string{
		{"x1", "[0,40)", "North"},
		{"x2", "[0,40)", "North"},
		{"x3", "[40,80)", "South"},
		{"x4", "[40,80)", "South"},
	})
	external := mkTable(t, [][]string{
		{"alice", "25", "Z1"},
		{"bob", "30", "Z2"},
		{"carol", "45", "Z3"},
		{"dave", "47", "Z4"},
	})
	res, err := Attack(published, external, []string{"age", "zip"}, trees)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReIdentified != 0 {
		t.Errorf("re-identified = %d on k=2 generalized data: %s", res.ReIdentified, res)
	}
	if res.MinCandidates < 2 {
		t.Errorf("min candidates = %d, want >= 2", res.MinCandidates)
	}
}

func TestAttackValidation(t *testing.T) {
	trees := smallTrees(t)
	tbl := mkTable(t, [][]string{{"a", "10", "Z1"}})
	if _, err := Attack(tbl, tbl, nil, trees); err == nil {
		t.Error("no join columns accepted")
	}
	if _, err := Attack(tbl, tbl, []string{"missing"}, trees); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := Attack(tbl, tbl, []string{"age"}, map[string]*dht.Tree{}); err == nil {
		t.Error("missing tree accepted")
	}
	bad := mkTable(t, [][]string{{"a", "not-a-number", "Z1"}})
	if _, err := Attack(tbl, bad, []string{"age"}, trees); err == nil {
		t.Error("unresolvable external value accepted")
	}
	// out-of-domain published value: simply no candidates
	res, err := Attack(bad, tbl, []string{"age"}, trees)
	if err != nil || res.Matched != 0 {
		t.Errorf("out-of-domain published: %v %v", res, err)
	}
}

func TestExternalView(t *testing.T) {
	tbl := mkTable(t, [][]string{{"a", "10", "Z1"}, {"b", "20", "Z2"}})
	view, err := ExternalView(tbl, "ssn", []string{"zip"})
	if err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 2 || view.Schema().NumColumns() != 2 {
		t.Fatalf("view shape: %d rows, %d cols", view.NumRows(), view.Schema().NumColumns())
	}
	if v, _ := view.Cell(1, "zip"); v != "Z2" {
		t.Errorf("cell = %q", v)
	}
	if _, err := ExternalView(tbl, "missing", []string{"zip"}); err == nil {
		t.Error("missing ident accepted")
	}
	if _, err := ExternalView(tbl, "ssn", []string{"missing"}); err == nil {
		t.Error("missing quasi accepted")
	}
}

// The paper's premise, end to end: raw de-identified data leak identities
// to a voter-roll join; the binned table leaks none.
func TestLinkingAttackBeforeAndAfterBinning(t *testing.T) {
	original, err := datagen.Generate(datagen.Config{Rows: 4000, Seed: 13, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	trees := ontology.Trees()
	quasi := original.Schema().QuasiColumns()

	// The adversary's voter roll covers everyone (worst case).
	external, err := ExternalView(original, ontology.ColSSN, quasi)
	if err != nil {
		t.Fatal(err)
	}

	// Naive release: only the SSN randomized.
	naive := original.Clone()
	ci, _ := naive.Schema().Index(ontology.ColSSN)
	for i := 0; i < naive.NumRows(); i++ {
		naive.SetCellAt(i, ci, "anon")
	}
	rawRes, err := Attack(naive, external, quasi, trees)
	if err != nil {
		t.Fatal(err)
	}
	if rawRes.Rate() < 0.5 {
		t.Errorf("naive release re-identification rate %.2f; expected most tuples unique over 5 quasi columns", rawRes.Rate())
	}

	// The core's protected release at k=10.
	fw, err := core.New(trees, core.Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ProtectContext(t.Context(), original, crypt.NewWatermarkKeyFromSecret("linkage", 75))
	if err != nil {
		t.Fatal(err)
	}
	binRes, err := Attack(prot.Table, external, quasi, trees)
	if err != nil {
		t.Fatal(err)
	}
	if binRes.ReIdentified != 0 {
		t.Errorf("binned release re-identified %d tuples; k-anonymity must prevent all", binRes.ReIdentified)
	}
	if binRes.Matched > 0 && binRes.MinCandidates < 10 {
		t.Errorf("min candidate set %d < k=10", binRes.MinCandidates)
	}
	// sanity: the binned table is k-anonymous
	ok, err := anonymity.SatisfiesK(prot.Table, quasi, 10)
	if err != nil || !ok {
		t.Error("binned table not k-anonymous")
	}
}

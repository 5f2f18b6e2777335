package datagen

import (
	"strconv"
	"testing"

	"repro/internal/ontology"
)

func TestGenerateBasic(t *testing.T) {
	cfg := Config{Rows: 500, Seed: 7, Correlate: true, ZipfS: 1.2}
	tbl, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 500 {
		t.Fatalf("rows = %d, want 500", tbl.NumRows())
	}
	if tbl.Schema().NumColumns() != 6 {
		t.Fatalf("columns = %d", tbl.Schema().NumColumns())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Rows: 200, Seed: 42, Correlate: true, ZipfS: 1.2}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumRows(); i++ {
		for _, c := range a.Schema().Names() {
			av, _ := a.Cell(i, c)
			bv, _ := b.Cell(i, c)
			if av != bv {
				t.Fatalf("row %d col %s: %q != %q (nondeterministic)", i, c, av, bv)
			}
		}
	}
	// Different seed should differ somewhere.
	c, err := Generate(Config{Rows: 200, Seed: 43, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.NumRows() && same; i++ {
		for _, col := range a.Schema().Names() {
			av, _ := a.Cell(i, col)
			cv, _ := c.Cell(i, col)
			if av != cv {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateValuesInDomains(t *testing.T) {
	tbl, err := Generate(Config{Rows: 300, Seed: 5, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	trees := ontology.Trees()
	for i := 0; i < tbl.NumRows(); i++ {
		for col, tree := range trees {
			v, _ := tbl.Cell(i, col)
			if _, err := tree.ResolveLeaf(v); err != nil {
				t.Fatalf("row %d: %s=%q not a leaf of its DHT: %v", i, col, v, err)
			}
		}
		age, _ := tbl.Cell(i, ontology.ColAge)
		x, err := strconv.Atoi(age)
		if err != nil || x < 0 || x >= 150 {
			t.Fatalf("row %d: bad age %q", i, age)
		}
	}
}

func TestGenerateSSNsUnique(t *testing.T) {
	tbl, err := Generate(Config{Rows: 5000, Seed: 11, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, tbl.NumRows())
	col, _ := tbl.Column(ontology.ColSSN)
	for i, s := range col {
		if seen[s] {
			t.Fatalf("duplicate SSN %q at row %d", s, i)
		}
		seen[s] = true
	}
}

func TestGenerateCorrelation(t *testing.T) {
	// With correlation on, circulatory symptoms should co-occur with
	// cardiovascular prescriptions far more often than 1/7 (uniform).
	tbl, err := Generate(Config{Rows: 8000, Seed: 3, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	symptomTree := ontology.Symptom()
	prescriptionTree := ontology.Prescription()
	circulatory, cardioRx, total := 0, 0, 0
	for i := 0; i < tbl.NumRows(); i++ {
		sym, _ := tbl.Cell(i, ontology.ColSymptom)
		nd, err := symptomTree.ResolveLeaf(sym)
		if err != nil {
			t.Fatal(err)
		}
		chapter, err := symptomTree.AncestorAtDepth(nd, 1)
		if err != nil {
			t.Fatal(err)
		}
		if symptomTree.Value(chapter) != "390-459 Circulatory System" {
			continue
		}
		circulatory++
		rx, _ := tbl.Cell(i, ontology.ColPrescription)
		rnd, err := prescriptionTree.ResolveLeaf(rx)
		if err != nil {
			t.Fatal(err)
		}
		class, err := prescriptionTree.AncestorAtDepth(rnd, 1)
		if err != nil {
			t.Fatal(err)
		}
		if prescriptionTree.Value(class) == "Cardiovascular Agents" {
			cardioRx++
		}
		total++
	}
	if circulatory < 100 {
		t.Fatalf("only %d circulatory rows; generator marginals broken", circulatory)
	}
	frac := float64(cardioRx) / float64(total)
	if frac < 0.5 {
		t.Errorf("cardio-Rx fraction among circulatory = %v, want >= 0.5 (0.7 mapping)", frac)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Rows: 0, ZipfS: 1.2}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := New(Config{Rows: 10, ZipfS: 1.0}); err == nil {
		t.Error("ZipfS = 1 accepted")
	}
	if _, err := New(Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2}); err != nil {
		t.Errorf("the paper-sized config rejected: %v", err)
	}
}

func TestAgeDistributionCoversBands(t *testing.T) {
	tbl, err := Generate(Config{Rows: 4000, Seed: 9, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	var pediatric, elderly int
	for i := 0; i < tbl.NumRows(); i++ {
		v, _ := tbl.Cell(i, ontology.ColAge)
		age, _ := strconv.Atoi(v)
		switch {
		case age < 15:
			pediatric++
		case age >= 65:
			elderly++
		}
	}
	if pediatric == 0 || elderly == 0 {
		t.Errorf("age mixture degenerate: pediatric=%d elderly=%d", pediatric, elderly)
	}
}

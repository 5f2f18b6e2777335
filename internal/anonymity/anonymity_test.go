package anonymity

import (
	"maps"
	"testing"

	"repro/internal/relation"
)

func makeTable(t *testing.T, rows [][]string) *relation.Table {
	t.Helper()
	tbl := relation.NewTable(relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.Identifying},
		relation.Column{Name: "age", Kind: relation.QuasiNumeric},
		relation.Column{Name: "role", Kind: relation.QuasiCategorical},
	))
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestCounterAcrossTables: a Counter fed a table in segments counts
// what Bins counts over the whole table, and re-counting bins it has
// seen allocates nothing.
func TestCounterAcrossTables(t *testing.T) {
	rows := [][]string{
		{"1", "[20,40)", "Nurse"},
		{"2", "[40,60)", "Nurse"},
		{"3", "[20,40)", "Doctor"},
		{"4", "[20,40)", "Nurse"},
		{"5", "[40,60)", "Nurse"},
	}
	cols := []string{"age", "role"}
	want, err := Bins(makeTable(t, rows), cols)
	if err != nil {
		t.Fatal(err)
	}
	var c Counter
	for _, seg := range [][][]string{rows[:2], rows[2:3], rows[3:]} {
		if err := c.Add(makeTable(t, seg), cols); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Bins(); !maps.Equal(got, want) {
		t.Errorf("Counter bins = %v, want %v", got, want)
	}
	seen := makeTable(t, rows)
	if n := testing.AllocsPerRun(10, func() { _ = c.Add(seen, cols) }); n > 2 {
		t.Errorf("Counter.Add over seen bins: %v allocs, want only its per-call column slices", n)
	}
	if err := c.Add(seen, []string{"nope"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestBins(t *testing.T) {
	tbl := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},
		{"2", "[20,40)", "Nurse"},
		{"3", "[20,40)", "Doctor"},
		{"4", "[40,60)", "Nurse"},
	})
	bins, err := Bins(tbl, []string{"age", "role"})
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins["[20,40)\x1fNurse"] != 2 {
		t.Errorf("bin sizes = %v", bins)
	}
	if _, err := Bins(tbl, []string{"missing"}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestMinBinSizeAndSatisfiesK(t *testing.T) {
	tbl := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},
		{"2", "[20,40)", "Nurse"},
		{"3", "[20,40)", "Doctor"},
	})
	min, err := MinBinSize(tbl, []string{"age", "role"})
	if err != nil || min != 1 {
		t.Errorf("MinBinSize = %d, %v; want 1", min, err)
	}
	ok, err := SatisfiesK(tbl, []string{"age", "role"}, 2)
	if err != nil || ok {
		t.Error("k=2 should fail (Doctor bin has 1)")
	}
	ok, _ = SatisfiesK(tbl, []string{"age"}, 3)
	if !ok {
		t.Error("k=3 over age alone should hold")
	}
	// Single-column vs multi-column: the paper's §4.2 example — columns
	// can satisfy k individually while the combination does not.
	ok, _ = SatisfiesK(tbl, []string{"age", "role"}, 3)
	if ok {
		t.Error("combination must fail k=3")
	}
	// Empty table.
	empty := makeTable(t, nil)
	min, err = MinBinSize(empty, []string{"age"})
	if err != nil || min != 0 {
		t.Errorf("empty MinBinSize = %d, %v", min, err)
	}
	ok, _ = SatisfiesK(empty, []string{"age"}, 5)
	if ok {
		t.Error("empty table with k>0 should report false (no bins at all)")
	}
}

func TestCompare(t *testing.T) {
	before := map[string]int{"a": 5, "b": 3, "c": 4}
	after := map[string]int{"a": 5, "b": 2, "d": 1}
	s := Compare(before, after, 3)
	if s.Total != 3 {
		t.Errorf("Total = %d, want 3", s.Total)
	}
	// b changed (3->2), c changed (4->0): 2 changed.
	if s.Changed != 2 {
		t.Errorf("Changed = %d, want 2", s.Changed)
	}
	// below k=3 after: b(2), c(0), d(1) -> 3.
	if s.BelowK != 3 {
		t.Errorf("BelowK = %d, want 3", s.BelowK)
	}
	if s.NewBins != 1 {
		t.Errorf("NewBins = %d, want 1", s.NewBins)
	}
	if s.String() != "3 2 3" {
		t.Errorf("String = %q", s.String())
	}
}

func TestCompareNoChange(t *testing.T) {
	bins := map[string]int{"a": 5, "b": 7}
	s := Compare(bins, bins, 5)
	if s.Changed != 0 || s.BelowK != 0 || s.NewBins != 0 {
		t.Errorf("identity compare = %+v", s)
	}
}

func TestFlow(t *testing.T) {
	before := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},
		{"2", "[20,40)", "Nurse"},
		{"3", "[40,60)", "Doctor"},
	})
	after := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},  // unchanged
		{"2", "[40,60)", "Nurse"},  // moved bins
		{"3", "[40,60)", "Doctor"}, // unchanged
	})
	flows, err := Flow(before, after, []string{"age", "role"})
	if err != nil {
		t.Fatal(err)
	}
	src := flows["[20,40)\x1fNurse"]
	if src == nil || src.Before != 2 || src.After != 1 || src.Out != 1 || src.In != 0 {
		t.Errorf("source bin flow = %+v", src)
	}
	dst := flows["[40,60)\x1fNurse"]
	if dst == nil || dst.Before != 0 || dst.After != 1 || dst.In != 1 || dst.Out != 0 {
		t.Errorf("dest bin flow = %+v", dst)
	}
	// conservation: total out == total in
	totalOut, totalIn := 0, 0
	for _, f := range flows {
		totalOut += f.Out
		totalIn += f.In
	}
	if totalOut != totalIn {
		t.Errorf("flow not conserved: out=%d in=%d", totalOut, totalIn)
	}
}

func TestFlowErrors(t *testing.T) {
	a := makeTable(t, [][]string{{"1", "x", "y"}})
	b := makeTable(t, nil)
	if _, err := Flow(a, b, []string{"age"}); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := Flow(a, a, []string{"missing"}); err == nil {
		t.Error("missing column accepted")
	}
}

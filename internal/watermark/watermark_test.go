package watermark

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/relation"
)

// detect is the tests' whole-table detection: one DetectAccum fed tbl
// as a single segment.
func detect(tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (DetectResult, error) {
	a, err := NewDetectAccum(identCol, columns, p)
	if err != nil {
		return DetectResult{}, err
	}
	if err := a.AddContext(context.Background(), tbl); err != nil {
		return DetectResult{}, err
	}
	return a.Result()
}

// fixture builds a binned two-column table with real bandwidth:
// zip-like tree (uniform depth) and a role tree (mixed depth frontiers).
type fixture struct {
	tbl     *relation.Table
	columns map[string]ColumnSpec
	params  Params
}

func zipLikeTree(t *testing.T) *dht.Tree {
	t.Helper()
	// 3 regions x 3 states x 3 zips: uniform depth 3 leaves.
	root := dht.Spec{Value: "ALL"}
	for r := 0; r < 3; r++ {
		reg := dht.Spec{Value: fmt.Sprintf("R%d", r)}
		for s := 0; s < 3; s++ {
			st := dht.Spec{Value: fmt.Sprintf("R%dS%d", r, s)}
			for z := 0; z < 3; z++ {
				st.Children = append(st.Children, dht.Spec{Value: fmt.Sprintf("R%dS%dZ%d", r, s, z)})
			}
			reg.Children = append(reg.Children, st)
		}
		root.Children = append(root.Children, reg)
	}
	tree, err := dht.NewCategorical("zip", root)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

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

// newFixture bins a synthetic table: zip at the state level (depth 2,
// uniform), role at {Doctor, Paramedic, Admin}.
func newFixture(t *testing.T, rows int, eta uint64) *fixture {
	t.Helper()
	zipTree := zipLikeTree(t)
	roleTr := roleTree(t)

	// ultimate = states (all depth-2 nodes); maximal = regions (depth 1).
	var states, regions []string
	for r := 0; r < 3; r++ {
		regions = append(regions, fmt.Sprintf("R%d", r))
		for s := 0; s < 3; s++ {
			states = append(states, fmt.Sprintf("R%dS%d", r, s))
		}
	}
	zipUlti, err := dht.NewGenSetFromValues(zipTree, states)
	if err != nil {
		t.Fatal(err)
	}
	zipMax, err := dht.NewGenSetFromValues(zipTree, regions)
	if err != nil {
		t.Fatal(err)
	}
	roleUlti, err := dht.NewGenSetFromValues(roleTr, []string{"Doctor", "Paramedic", "Admin"})
	if err != nil {
		t.Fatal(err)
	}
	roleMax := dht.RootGenSet(roleTr)

	schema := relation.MustSchema(
		relation.Column{Name: "ssn", Kind: relation.Identifying},
		relation.Column{Name: "zip", Kind: relation.QuasiCategorical},
		relation.Column{Name: "role", Kind: relation.QuasiCategorical},
	)
	tbl := relation.NewTable(schema)
	rng := rand.New(rand.NewSource(99))
	roleVals := []string{"Doctor", "Paramedic", "Admin"}
	for i := 0; i < rows; i++ {
		row := []string{
			fmt.Sprintf("enc-%06d-%04d", i, rng.Intn(10000)),
			states[rng.Intn(len(states))],
			roleVals[rng.Intn(len(roleVals))],
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}

	mark, err := bitstr.FromString("10110010011011010010") // 20 bits as in §7.2
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		tbl: tbl,
		columns: map[string]ColumnSpec{
			"zip":  {Tree: zipTree, MaxGen: zipMax, UltiGen: zipUlti},
			"role": {Tree: roleTr, MaxGen: roleMax, UltiGen: roleUlti},
		},
		params: Params{
			Key:                    crypt.NewWatermarkKeyFromSecret("owner-secret", eta),
			Mark:                   mark,
			Duplication:            4,
			SaltPositionWithColumn: true,
		},
	}
}

func TestEmbedDetectRoundtrip(t *testing.T) {
	f := newFixture(t, 4000, 10)
	marked := f.tbl.Clone()
	stats, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TuplesSelected == 0 || stats.BitsEmbedded == 0 {
		t.Fatalf("no embedding happened: %+v", stats)
	}
	res, err := detect(marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mark.Equal(f.params.Mark) {
		t.Fatalf("roundtrip mark = %s, want %s (stats %+v)", res.Mark.String(), f.params.Mark.String(), res.Stats)
	}
	loss, err := MarkLoss(f.params.Mark, res)
	if err != nil || loss != 0 {
		t.Errorf("clean-table mark loss = %v, %v", loss, err)
	}
}

func TestEmbedPreservesFrontierValidity(t *testing.T) {
	// Every watermarked value must still be an ultimate-frontier value:
	// watermarking must not break the binning (seamlessness).
	f := newFixture(t, 2000, 5)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	for col, spec := range f.columns {
		ci, _ := marked.Schema().Index(col)
		for i := 0; i < marked.NumRows(); i++ {
			id, err := spec.Tree.ResolveValue(marked.CellAt(i, ci))
			if err != nil {
				t.Fatalf("row %d col %s: %v", i, col, err)
			}
			if !spec.UltiGen.Contains(id) {
				t.Fatalf("row %d col %s: value %q left the ultimate frontier", i, col, marked.CellAt(i, ci))
			}
		}
	}
}

func TestEmbedRespectsUsageMetrics(t *testing.T) {
	// A watermarked value must stay under the same maximal generalization
	// node as the original (the §5.1 bandwidth argument).
	f := newFixture(t, 2000, 5)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	for col, spec := range f.columns {
		ci, _ := marked.Schema().Index(col)
		for i := 0; i < marked.NumRows(); i++ {
			before, _ := spec.Tree.ResolveValue(f.tbl.CellAt(i, ci))
			after, _ := spec.Tree.ResolveValue(marked.CellAt(i, ci))
			mb, _ := spec.MaxGen.CoverOf(before)
			ma, ok := spec.MaxGen.CoverOf(after)
			if !ok || mb != ma {
				t.Fatalf("row %d col %s: permutation crossed maximal node boundaries (%q -> %q)",
					i, col, f.tbl.CellAt(i, ci), marked.CellAt(i, ci))
			}
		}
	}
}

func TestDetectRequiresKey(t *testing.T) {
	f := newFixture(t, 4000, 10)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	wrong := f.params
	wrong.Key = crypt.NewWatermarkKeyFromSecret("thief-secret", f.params.Key.Eta)
	res, err := detect(marked, "ssn", f.columns, wrong)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	if loss < 0.2 {
		t.Errorf("wrong key recovered the mark (loss %v); selection/permutation must be key-dependent", loss)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	f := newFixture(t, 1000, 5)
	a := f.tbl.Clone()
	b := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), a, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	if _, err := EmbedContext(context.Background(), b, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumRows(); i++ {
		for _, c := range a.Schema().Names() {
			av, _ := a.Cell(i, c)
			bv, _ := b.Cell(i, c)
			if av != bv {
				t.Fatalf("embedding nondeterministic at row %d col %s", i, c)
			}
		}
	}
}

func TestEmbedIdempotentDetection(t *testing.T) {
	// Re-embedding the same mark over a marked table must not change it:
	// the walk is a function of (ident, key, mark), not of the cell value.
	f := newFixture(t, 1500, 5)
	once := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), once, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	twice := once.Clone()
	if _, err := EmbedContext(context.Background(), twice, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < once.NumRows(); i++ {
		for _, c := range once.Schema().Names() {
			av, _ := once.Cell(i, c)
			bv, _ := twice.Cell(i, c)
			if av != bv {
				t.Fatalf("re-embedding changed row %d col %s", i, c)
			}
		}
	}
}

func TestEtaControlsBandwidth(t *testing.T) {
	fSmall := newFixture(t, 4000, 5)   // dense marking
	fLarge := newFixture(t, 4000, 100) // sparse marking
	mSmall := fSmall.tbl.Clone()
	mLarge := fLarge.tbl.Clone()
	sSmall, err := EmbedContext(context.Background(), mSmall, "ssn", fSmall.columns, fSmall.params)
	if err != nil {
		t.Fatal(err)
	}
	sLarge, err := EmbedContext(context.Background(), mLarge, "ssn", fLarge.columns, fLarge.params)
	if err != nil {
		t.Fatal(err)
	}
	if sSmall.TuplesSelected <= sLarge.TuplesSelected {
		t.Errorf("eta=5 selected %d tuples, eta=100 selected %d; smaller eta must select more",
			sSmall.TuplesSelected, sLarge.TuplesSelected)
	}
}

func TestZeroBandwidthWhenUltiEqualsMax(t *testing.T) {
	f := newFixture(t, 500, 3)
	// Collapse zip's maximal frontier onto the ultimate frontier.
	spec := f.columns["zip"]
	spec.MaxGen = spec.UltiGen
	f.columns["zip"] = spec

	marked := f.tbl.Clone()
	stats, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ZeroBandwidth == 0 {
		t.Error("expected zero-bandwidth cells when ultimate == maximal")
	}
	// zip column must be untouched
	ci, _ := marked.Schema().Index("zip")
	for i := 0; i < marked.NumRows(); i++ {
		if marked.CellAt(i, ci) != f.tbl.CellAt(i, ci) {
			t.Fatal("zip cell changed despite zero bandwidth")
		}
	}
	// role column still carries the mark
	res, err := detect(marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := MarkLoss(f.params.Mark, res)
	if loss > 0.1 {
		t.Errorf("mark loss %v despite role-column bandwidth", loss)
	}
}

func TestBoundaryPermutation(t *testing.T) {
	f := newFixture(t, 3000, 5)
	// Collapse zip entirely: ultimate == maximal == states.
	spec := f.columns["zip"]
	spec.MaxGen = spec.UltiGen
	f.columns = map[string]ColumnSpec{"zip": spec}
	f.params.BoundaryPermutation = true

	marked := f.tbl.Clone()
	stats, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitsEmbedded == 0 {
		t.Fatal("boundary permutation embedded nothing")
	}
	res, err := detect(marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mark.Equal(f.params.Mark) {
		t.Errorf("boundary-mode roundtrip mark = %s, want %s", res.Mark.String(), f.params.Mark.String())
	}
}

func TestWeightedVotingRoundtrip(t *testing.T) {
	f := newFixture(t, 3000, 8)
	f.params.WeightedVoting = true
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	res, err := detect(marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mark.Equal(f.params.Mark) {
		t.Errorf("weighted roundtrip failed: %s vs %s", res.Mark.String(), f.params.Mark.String())
	}
}

func TestUnsaltedPositionRoundtrip(t *testing.T) {
	f := newFixture(t, 4000, 8)
	f.params.SaltPositionWithColumn = false
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	res, err := detect(marked, "ssn", f.columns, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mark.Equal(f.params.Mark) {
		t.Errorf("unsalted roundtrip failed: %s vs %s", res.Mark.String(), f.params.Mark.String())
	}
}

func TestParamValidation(t *testing.T) {
	f := newFixture(t, 10, 5)
	marked := f.tbl.Clone()

	bad := f.params
	bad.Mark = bitstr.New(0)
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, bad); err == nil {
		t.Error("empty mark accepted")
	}
	bad = f.params
	bad.Duplication = 0
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, bad); err == nil {
		t.Error("zero duplication accepted")
	}
	bad = f.params
	bad.Key.Eta = 0
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, bad); err == nil {
		t.Error("eta=0 accepted")
	}
	if _, err := EmbedContext(context.Background(), marked, "missing", f.columns, f.params); err == nil {
		t.Error("missing ident column accepted")
	}
	if _, err := EmbedContext(context.Background(), marked, "ssn", map[string]ColumnSpec{}, f.params); err == nil {
		t.Error("no columns accepted")
	}
	// cross-tree frontier
	other := roleTree(t)
	badCols := map[string]ColumnSpec{"zip": {
		Tree:    f.columns["zip"].Tree,
		MaxGen:  dht.RootGenSet(other),
		UltiGen: f.columns["zip"].UltiGen,
	}}
	if _, err := EmbedContext(context.Background(), marked, "ssn", badCols, f.params); err == nil {
		t.Error("cross-tree frontier accepted")
	}
	// unbinned table: select every tuple (eta=1) so the check must fire
	raw := relation.NewTable(marked.Schema())
	_ = raw.AppendRow([]string{"x", "R0S0Z1", "Nurse"}) // leaf values, not frontier values
	selectAll := f.params
	selectAll.Key = crypt.NewWatermarkKeyFromSecret("owner-secret", 1)
	if _, err := EmbedContext(context.Background(), raw, "ssn", f.columns, selectAll); err == nil {
		t.Error("unbinned values accepted")
	}
}

func TestDetectValidation(t *testing.T) {
	f := newFixture(t, 10, 5)
	if _, err := detect(f.tbl, "missing", f.columns, f.params); err == nil {
		t.Error("missing ident column accepted")
	}
	bad := f.params
	bad.Mark = bitstr.New(0)
	if _, err := detect(f.tbl, "ssn", f.columns, bad); err == nil {
		t.Error("empty mark accepted")
	}
}

func TestSetMuBit(t *testing.T) {
	cases := []struct {
		v    int
		bit  bool
		size int
		want int
	}{
		{0, false, 4, 0}, {0, true, 4, 1},
		{3, false, 4, 2}, {3, true, 4, 3},
		{2, true, 3, 1},  // 2|1=3 >= 3 -> 1
		{2, false, 3, 2}, // stays
		{1, false, 2, 0},
		{0, true, 2, 1},
	}
	for _, c := range cases {
		if got := setMuBit(c.v, c.bit, c.size); got != c.want {
			t.Errorf("setMuBit(%d,%v,%d) = %d, want %d", c.v, c.bit, c.size, got, c.want)
		}
	}
	// Exhaustive range+parity property.
	for size := 2; size <= 9; size++ {
		for v := 0; v < size; v++ {
			for _, bit := range []bool{false, true} {
				got := setMuBit(v, bit, size)
				if got < 0 || got >= size {
					t.Fatalf("setMuBit(%d,%v,%d) = %d out of range", v, bit, size, got)
				}
				if (got&1 == 1) != bit {
					t.Fatalf("setMuBit(%d,%v,%d) = %d wrong parity", v, bit, size, got)
				}
			}
		}
	}
}

func TestSingleLevelRoundtrip(t *testing.T) {
	f := newFixture(t, 4000, 8)
	// Single-level scheme needs uniform-depth frontiers: use zip only.
	cols := map[string]ColumnSpec{"zip": f.columns["zip"]}
	marked := f.tbl.Clone()
	stats, err := EmbedSingleLevel(marked, "ssn", cols, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitsEmbedded == 0 {
		t.Fatal("single-level embedded nothing")
	}
	res, err := DetectSingleLevel(marked, "ssn", cols, f.params)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mark.Equal(f.params.Mark) {
		t.Errorf("single-level roundtrip mark = %s, want %s", res.Mark.String(), f.params.Mark.String())
	}
}

func TestSingleLevelRejectsMixedDepthFrontier(t *testing.T) {
	f := newFixture(t, 100, 5)
	cols := map[string]ColumnSpec{"role": f.columns["role"]} // mixed depth? Doctor/Paramedic depth 2, Admin depth 1
	if _, err := EmbedSingleLevel(f.tbl.Clone(), "ssn", cols, f.params); err == nil ||
		!strings.Contains(err.Error(), "uniform-depth") {
		t.Errorf("mixed-depth frontier accepted: %v", err)
	}
}

func TestSingleLevelValuesStayOnFrontier(t *testing.T) {
	f := newFixture(t, 2000, 5)
	cols := map[string]ColumnSpec{"zip": f.columns["zip"]}
	marked := f.tbl.Clone()
	if _, err := EmbedSingleLevel(marked, "ssn", cols, f.params); err != nil {
		t.Fatal(err)
	}
	spec := cols["zip"]
	ci, _ := marked.Schema().Index("zip")
	for i := 0; i < marked.NumRows(); i++ {
		id, err := spec.Tree.ResolveValue(marked.CellAt(i, ci))
		if err != nil || !spec.UltiGen.Contains(id) {
			t.Fatalf("row %d: single-level target %q off the frontier", i, marked.CellAt(i, ci))
		}
	}
}

package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/crypt"
	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// small keeps experiment tests fast while exercising the full code paths.
func small() Config {
	return Config{Rows: 4000, Seed: 3, MarkBits: 20, Duplication: 4, Secret: "test-secret"}
}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestFigure11Shape(t *testing.T) {
	tbl, err := Figure11(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Multi-attribute loss must dominate mono-attribute loss at every k
	// (the paper's headline observation).
	for i := range tbl.Rows {
		mono := cell(t, tbl, i, 1)
		multi := cell(t, tbl, i, 2)
		if multi < mono {
			t.Errorf("k=%s: multi %v < mono %v", tbl.Rows[i][0], multi, mono)
		}
	}
	// Both curves are monotonically non-decreasing in k (within a small
	// tolerance for the greedy search).
	for i := 1; i < len(tbl.Rows); i++ {
		if cell(t, tbl, i, 1)+1e-9 < cell(t, tbl, i-1, 1)-2 {
			t.Errorf("mono loss dropped sharply at k=%s", tbl.Rows[i][0])
		}
	}
	// Saturation: the last two multi values are close.
	last := cell(t, tbl, len(tbl.Rows)-1, 2)
	prev := cell(t, tbl, len(tbl.Rows)-2, 2)
	if last-prev > 10 {
		t.Errorf("multi loss still rising steeply at the end: %v -> %v", prev, last)
	}
}

func TestFigure12aShape(t *testing.T) {
	tbl, err := Figure12a(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(figure12Fracs) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Zero attack -> zero loss for every eta.
	for col := 1; col <= 3; col++ {
		if loss := cell(t, tbl, 0, col); loss != 0 {
			t.Errorf("0%% alteration, col %d: loss %v", col, loss)
		}
	}
	// Survival: at 70% alteration the mark loss stays at or below the
	// paper's ~30%.
	for col := 1; col <= 3; col++ {
		if loss := cell(t, tbl, 7, col); loss > 35 {
			t.Errorf("70%% alteration, col %d: loss %v > 35", col, loss)
		}
	}
}

func TestFigure12bShape(t *testing.T) {
	tbl, err := Figure12b(small())
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col <= 3; col++ {
		if loss := cell(t, tbl, 0, col); loss != 0 {
			t.Errorf("0%% addition, col %d: loss %v", col, loss)
		}
		if loss := cell(t, tbl, len(tbl.Rows)-1, col); loss > 30 {
			t.Errorf("90%% addition, col %d: loss %v > 30 (bogus bits must not dominate)", col, loss)
		}
	}
}

func TestFigure12cShape(t *testing.T) {
	tbl, err := Figure12c(small())
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col <= 3; col++ {
		if loss := cell(t, tbl, 0, col); loss != 0 {
			t.Errorf("0%% deletion, col %d: loss %v", col, loss)
		}
		if loss := cell(t, tbl, 7, col); loss > 35 {
			t.Errorf("70%% deletion, col %d: loss %v > 35", col, loss)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	tbl, err := Figure13(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Loss is minor (paper: single digits) and non-increasing in η.
	prev := 1e9
	for i := range tbl.Rows {
		loss := cell(t, tbl, i, 3)
		if loss > 10 {
			t.Errorf("η=%s: watermark info loss %v%% not minor", tbl.Rows[i][0], loss)
		}
		if loss > prev+0.5 {
			t.Errorf("loss grew with η at row %d: %v after %v", i, loss, prev)
		}
		prev = loss
	}
	// More marked tuples at smaller η.
	if cell(t, tbl, 0, 1) <= cell(t, tbl, len(tbl.Rows)-1, 1) {
		t.Error("η=50 should select more tuples than η=200")
	}
}

func TestFigure14Shape(t *testing.T) {
	tbl, err := Figure14(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Header) != 6 { // k + 5 attributes
		t.Fatalf("header = %v", tbl.Header)
	}
	for _, row := range tbl.Rows {
		for col := 1; col < len(row); col++ {
			parts := strings.Fields(row[col])
			if len(parts) != 3 {
				t.Fatalf("cell %q malformed", row[col])
			}
			total, _ := strconv.Atoi(parts[0])
			changed, _ := strconv.Atoi(parts[1])
			belowK, _ := strconv.Atoi(parts[2])
			if total <= 0 {
				t.Errorf("k=%s %s: no bins", row[0], tbl.Header[col])
			}
			if changed > total {
				t.Errorf("k=%s %s: changed %d > total %d", row[0], tbl.Header[col], changed, total)
			}
			// The paper's key claim: zero bins below k.
			if belowK != 0 {
				t.Errorf("k=%s %s: %d bins below k", row[0], tbl.Header[col], belowK)
			}
		}
	}
}

func TestSeamlessnessShape(t *testing.T) {
	tbl, err := Seamlessness(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		out, _ := strconv.Atoi(row[2])
		in, _ := strconv.Atoi(row[3])
		if out != in {
			t.Errorf("%s: total out %d != total in %d (flow must conserve)", row[0], out, in)
		}
		rel, _ := strconv.ParseFloat(row[6], 64)
		// Lemmas 1-2 under the paper's relaxed reading: per-run net bin
		// drift is a small fraction of bin size (no bin "drastically
		// affected"). 10% is far above the observed noise.
		if out > 0 && rel > 10 {
			t.Errorf("%s: per-run net drift %v%% of bin size; Pr− ≈ Pr+ violated", row[0], rel)
		}
	}
}

func TestGeneralizationAttackShape(t *testing.T) {
	tbl, err := GeneralizationAttack(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// level 0: both schemes clean.
	if cell(t, tbl, 0, 1) != 0 || cell(t, tbl, 0, 2) != 0 {
		t.Errorf("clean losses: %v %v", tbl.Rows[0][1], tbl.Rows[0][2])
	}
	// level 1: single-level destroyed (≈ fraction of 1-bits ≥ 30%),
	// hierarchical survives (small loss).
	single := cell(t, tbl, 1, 1)
	hier := cell(t, tbl, 1, 2)
	if single < 25 {
		t.Errorf("single-level loss %v after 1-level attack; paper says destroyed", single)
	}
	if hier > 10 {
		t.Errorf("hierarchical loss %v after 1-level attack; paper says resilient", hier)
	}
	if hier >= single {
		t.Errorf("hierarchical (%v) must beat single-level (%v)", hier, single)
	}
}

func TestDownUpAblationShape(t *testing.T) {
	tbl, err := DownUpAblation(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// At the largest k the downward search must visit fewer nodes: the
	// minimal frontier sits near the maximal nodes where it starts.
	last := tbl.Rows[len(tbl.Rows)-1]
	down, _ := strconv.Atoi(last[1])
	up, _ := strconv.Atoi(last[2])
	if down >= up {
		t.Errorf("k=%s: downward visited %d >= upward %d", last[0], down, up)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"T — demo", "long-column", "333333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFrontierAtDepth(t *testing.T) {
	tree := ontology.Zip()
	g, err := FrontierAtDepth(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Errorf("regions = %d, want 4", g.Len())
	}
	g, err = FrontierAtDepth(tree, 99)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != tree.NumLeaves() {
		t.Errorf("deep frontier should be all leaves")
	}
	g, err = FrontierAtDepth(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("depth 0 should be the root")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Rows != 20000 || c.MarkBits != 20 || c.Duplication != 4 || c.Secret == "" || c.Seed == 0 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestWeightedVotingAblationShape(t *testing.T) {
	tbl, err := WeightedVotingAblation(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		unweighted := cell(t, tbl, i, 1)
		weighted := cell(t, tbl, i, 2)
		if weighted > unweighted {
			t.Errorf("attacked %s%%: weighted %v beats unweighted %v the wrong way",
				tbl.Rows[i][0], weighted, unweighted)
		}
	}
	// At full attack strength weighted voting must keep the mark intact
	// (the §5.3 policy's purpose) while unweighted suffers.
	last := len(tbl.Rows) - 1
	if w := cell(t, tbl, last, 2); w > 10 {
		t.Errorf("weighted loss %v at full attack; top level should recover the mark", w)
	}
}

func TestSwappingAblationShape(t *testing.T) {
	tbl, err := SwappingAblation(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		plain, _ := strconv.ParseFloat(row[1], 64)
		swapped, _ := strconv.ParseFloat(row[2], 64)
		// Swapping must not blow the drift up; both stay small.
		if plain > 10 || swapped > 10 {
			t.Errorf("%s: drift plain=%v swapped=%v too large", row[0], plain, swapped)
		}
		moved, _ := strconv.Atoi(row[3])
		if moved == 0 {
			t.Errorf("%s: no tuples swapped", row[0])
		}
	}
}

func TestReIdentificationShape(t *testing.T) {
	tbl, err := ReIdentification(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The naive release re-identifies most tuples...
	if rate := cell(t, tbl, 0, 2); rate < 50 {
		t.Errorf("naive re-identification rate %v%%, expected most tuples unique", rate)
	}
	// ...every binned release re-identifies none, with candidate sets >= k.
	ks := []float64{5, 10, 25, 50}
	for i := 1; i < len(tbl.Rows); i++ {
		if n := cell(t, tbl, i, 1); n != 0 {
			t.Errorf("%s: %v tuples re-identified", tbl.Rows[i][0], n)
		}
		if min := cell(t, tbl, i, 3); min > 0 && min < ks[i-1] {
			t.Errorf("%s: min candidates %v < k", tbl.Rows[i][0], min)
		}
	}
}

// assertRows compares every row of an experiment table with a golden
// literal, cell by cell.
func assertRows(t *testing.T, tbl *Table, want [][]string) {
	t.Helper()
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(want))
	}
	for i, row := range want {
		if strings.Join(tbl.Rows[i], "|") != strings.Join(row, "|") {
			t.Errorf("row %d = %q, want %q", i, tbl.Rows[i], row)
		}
	}
}

// TestFigure11Golden pins the E1 sweep on the small fixture: the mono-
// and multi-attribute losses at every k.
func TestFigure11Golden(t *testing.T) {
	tbl, err := Figure11(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"10", "2.5", "79.4"},
		{"20", "3.6", "79.4"},
		{"45", "8.8", "81.0"},
		{"100", "12.0", "82.8"},
		{"150", "12.3", "82.8"},
		{"200", "30.7", "82.8"},
		{"250", "32.3", "82.8"},
		{"300", "36.0", "81.8"},
		{"350", "49.7", "81.8"},
	})
}

// TestReIdentificationGolden pins the E12 linking attack on the small
// fixture: the naive release and the binned release at every k.
func TestReIdentificationGolden(t *testing.T) {
	tbl, err := ReIdentification(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"de-identified only", "3959", "99.0", "1", "3"},
		{"binned k=5", "0", "0.0", "28", "1303"},
		{"binned k=10", "0", "0.0", "28", "1303"},
		{"binned k=25", "0", "0.0", "28", "1303"},
		{"binned k=50", "0", "0.0", "50", "1303"},
	})
}

// TestSeamlessnessGolden pins the E7 drift rows on the small fixture:
// bins, flow totals, mean drift, mean bin size and drift/size per column.
func TestSeamlessnessGolden(t *testing.T) {
	tbl, err := Seamlessness(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"age", "20", "598", "598", "3.61", "200", "1.8"},
		{"zip_code", "24", "613", "613", "2.81", "167", "1.7"},
		{"doctor", "24", "681", "681", "3.54", "167", "2.1"},
		{"symptom", "52", "516", "516", "1.12", "77", "1.5"},
		{"prescription", "56", "718", "718", "1.57", "71", "2.2"},
	})
}

// TestGeneralizationAttackGolden pins the E8 sweep on the small fixture:
// single-level and hierarchical loss at every attack depth.
func TestGeneralizationAttackGolden(t *testing.T) {
	tbl, err := GeneralizationAttack(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"0", "0.0", "0.0"},
		{"1", "40.0", "0.0"},
		{"2", "40.0", "40.0"},
	})
}

// TestWeightedVotingAblationGolden pins the E10 sweep on the small
// fixture: unweighted and weighted loss at every attacked fraction.
func TestWeightedVotingAblationGolden(t *testing.T) {
	tbl, err := WeightedVotingAblation(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"0.0", "0.0", "0.0"},
		{"25.0", "0.0", "0.0"},
		{"50.0", "0.0", "0.0"},
		{"75.0", "0.0", "0.0"},
		{"100.0", "10.0", "0.0"},
	})
}

// TestSwappingAblationGolden pins the E11 rows on the small fixture: the
// drift/size per column without and with restrained swapping, and the
// tuples swapped.
func TestSwappingAblationGolden(t *testing.T) {
	tbl, err := SwappingAblation(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"age", "1.7", "1.7", "3372"},
		{"zip_code", "1.6", "1.6", "3372"},
		{"doctor", "2.2", "1.1", "3372"},
		{"symptom", "1.5", "1.4", "3372"},
		{"prescription", "2.3", "2.2", "3372"},
	})
}

// TestFigure12Golden pins the E2–E4 sweeps on the small fixture: the
// mark loss at every attack strength and η for subset alteration,
// addition and deletion.
func TestFigure12Golden(t *testing.T) {
	var zeros [][]string
	for _, frac := range []string{"0.0", "10.0", "20.0", "30.0", "40.0", "50.0", "60.0", "70.0", "80.0", "90.0"} {
		zeros = append(zeros, []string{frac, "0.0", "0.0", "0.0"})
	}
	for _, tc := range []struct {
		name string
		run  func(Config) (*Table, error)
		rows [][]string
	}{
		{"12a", Figure12a, [][]string{
			{"0.0", "0.0", "0.0", "0.0"},
			{"10.0", "0.0", "0.0", "0.0"},
			{"20.0", "0.0", "0.0", "0.0"},
			{"30.0", "0.0", "5.0", "0.0"},
			{"40.0", "0.0", "0.0", "0.0"},
			{"50.0", "0.0", "10.0", "5.0"},
			{"60.0", "20.0", "15.0", "15.0"},
			{"70.0", "10.0", "0.0", "20.0"},
			{"80.0", "5.0", "25.0", "30.0"},
			{"90.0", "40.0", "25.0", "30.0"},
		}},
		{"12b", Figure12b, zeros},
		{"12c", Figure12c, zeros},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.run(small())
			if err != nil {
				t.Fatal(err)
			}
			assertRows(t, tbl, tc.rows)
		})
	}
}

// TestFigure13Golden pins the E5 sweep on the small fixture: tuples
// marked, cells changed and the extra information loss at every η.
func TestFigure13Golden(t *testing.T) {
	tbl, err := Figure13(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"50", "76", "281", "0.2"},
		{"75", "43", "159", "0.1"},
		{"100", "41", "155", "0.1"},
		{"150", "22", "74", "0.1"},
		{"200", "24", "95", "0.1"},
	})
}

// TestFigure14Golden pins the E6 rows on the small fixture: total bins,
// bins changed and bins below k per quasi column at every k.
func TestFigure14Golden(t *testing.T) {
	tbl, err := Figure14(small())
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, tbl, [][]string{
		{"10", "20 17 0", "20 16 0", "17 10 0", "12 0 0", "17 9 0"},
		{"20", "20 17 0", "16 12 0", "10 7 0", "12 0 0", "9 0 0"},
		{"45", "19 17 0", "12 10 0", "6 3 0", "12 0 0", "7 0 0"},
		{"100", "19 17 0", "8 5 0", "6 3 0", "12 0 0", "7 0 0"},
	})
}

// handRelease is the experiments' former write path, kept as the oracle
// wmSetup.release must match: map every quasi column of the original
// table to its frontier (the ultimate nodes in columns, else the
// setup's), encrypt the identifiers under key.Enc, and embed the
// setup's mark into columns with watermark.EmbedContext.
func handRelease(s *wmSetup, columns map[string]watermark.ColumnSpec, key crypt.WatermarkKey) (*relation.Table, watermark.EmbedStats, error) {
	ctx := context.Background()
	tbl := s.original.Clone()
	for _, col := range tbl.Schema().QuasiColumns() {
		spec, ok := columns[col]
		if !ok {
			spec = s.columns[col]
		}
		ci, _ := tbl.Schema().Index(col)
		if _, err := tbl.MapColumnCtx(ctx, 1, ci, func(dst []byte, v string) ([]byte, error) {
			g, err := spec.UltiGen.GeneralizeValue(v)
			return append(dst, g...), err
		}, nil); err != nil {
			return nil, watermark.EmbedStats{}, err
		}
	}
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		return nil, watermark.EmbedStats{}, err
	}
	identIdx, _ := tbl.Schema().Index(s.identCol)
	if _, err := tbl.MapColumnCtx(ctx, 1, identIdx, func(dst []byte, v string) ([]byte, error) {
		return cipher.AppendEncryptString(dst, v), nil
	}, crypt.TokenLen); err != nil {
		return nil, watermark.EmbedStats{}, err
	}
	stats, err := watermark.EmbedContext(ctx, tbl, s.identCol, columns, watermark.Params{
		Key:                    key,
		Mark:                   s.mark,
		Duplication:            s.cfg.Duplication,
		SaltPositionWithColumn: true,
		Workers:                1,
	})
	return tbl, stats, err
}

// TestReleaseMatchesHandPipeline requires the experiments' release
// through the core's write loop to publish the cells, and report the
// embedding statistics, of the hand pipeline it replaced: at every
// Figure 12 η, on both zip fixtures of E8 and E10, and under a
// binDrift trial key.
func TestReleaseMatchesHandPipeline(t *testing.T) {
	setup, err := newWatermarkSetup(small(), 20)
	if err != nil {
		t.Fatal(err)
	}
	zip3, zip3Cols, err := setup.zipAtDepth(3)
	if err != nil {
		t.Fatal(err)
	}
	zip4, zip4Cols, err := setup.zipAtDepth(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tbl     *relation.Table
		columns map[string]watermark.ColumnSpec
		key     crypt.WatermarkKey
	}{
		{"eta50", setup.binned, setup.columns, setup.key(50)},
		{"eta75", setup.binned, setup.columns, setup.key(75)},
		{"eta100", setup.binned, setup.columns, setup.key(100)},
		{"zip3", zip3, zip3Cols, setup.key(25)},
		{"zip4", zip4, zip4Cols, setup.key(25)},
		{"trial3", setup.binned, setup.columns, trialKey(setup.key(50), 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prot, err := setup.release(tc.tbl, tc.columns, tc.key, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, stats, err := handRelease(setup, tc.columns, tc.key)
			if err != nil {
				t.Fatal(err)
			}
			if stats.CellsChanged == 0 {
				t.Fatal("the hand pipeline changed no cell; the comparison is vacuous")
			}
			var got, exp strings.Builder
			if err := prot.Table.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if err := want.WriteCSV(&exp); err != nil {
				t.Fatal(err)
			}
			if got.String() != exp.String() {
				t.Error("release publishes other cells than the hand pipeline")
			}
			// release plans every quasi column absent from columns with
			// no bandwidth: one zero-bandwidth cell per selected tuple
			// each, where the hand pipeline did not embed at all.
			stats.ZeroBandwidth += (len(setup.columns) - len(tc.columns)) * stats.TuplesSelected
			if prot.Embed != stats {
				t.Errorf("release embed stats %+v, hand pipeline %+v", prot.Embed, stats)
			}
		})
	}
}

package binning

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// sketchFromSegments builds a sketch by draining tbl.Segments(chunk).
func sketchFromSegments(tb testing.TB, tbl *relation.Table, trees map[string]*dht.Tree, chunk int) *Sketch {
	tb.Helper()
	sk, err := NewSketch(tbl.Schema(), trees)
	if err != nil {
		tb.Fatal(err)
	}
	segs := tbl.Segments(chunk)
	for {
		seg, err := segs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		if err := sk.Add(seg); err != nil {
			tb.Fatal(err)
		}
	}
	return sk
}

// searchResultsEqual compares every published field of two search
// results. Everything must match exactly, floats included: both paths
// run the same integer histograms through the same loss formulas.
func searchResultsEqual(a, b *SearchResult) error {
	for name, pair := range map[string][2]map[string]dht.GenSet{
		"MinGens":  {a.MinGens, b.MinGens},
		"MaxGens":  {a.MaxGens, b.MaxGens},
		"UltiGens": {a.UltiGens, b.UltiGens},
	} {
		if err := gensEqual(pair[0], pair[1]); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if len(a.ColumnLoss) != len(b.ColumnLoss) {
		return fmt.Errorf("ColumnLoss sizes %d vs %d", len(a.ColumnLoss), len(b.ColumnLoss))
	}
	for col, la := range a.ColumnLoss {
		if lb, ok := b.ColumnLoss[col]; !ok || la != lb {
			return fmt.Errorf("ColumnLoss[%s]: %v vs %v", col, la, b.ColumnLoss[col])
		}
	}
	if a.AvgLoss != b.AvgLoss {
		return fmt.Errorf("AvgLoss %v vs %v", a.AvgLoss, b.AvgLoss)
	}
	if a.EffectiveK != b.EffectiveK {
		return fmt.Errorf("EffectiveK %d vs %d", a.EffectiveK, b.EffectiveK)
	}
	if a.Suppressed != b.Suppressed {
		return fmt.Errorf("Suppressed %d vs %d", a.Suppressed, b.Suppressed)
	}
	if len(a.SuppressValues) != len(b.SuppressValues) {
		return fmt.Errorf("SuppressValues sizes %d vs %d", len(a.SuppressValues), len(b.SuppressValues))
	}
	for col, va := range a.SuppressValues {
		vb := b.SuppressValues[col]
		if len(va) != len(vb) {
			return fmt.Errorf("SuppressValues[%s]: %v vs %v", col, va, vb)
		}
		for i := range va {
			if va[i] != vb[i] {
				return fmt.Errorf("SuppressValues[%s]: %v vs %v", col, va, vb)
			}
		}
	}
	if len(a.MonoStats) != len(b.MonoStats) {
		return fmt.Errorf("MonoStats sizes %d vs %d", len(a.MonoStats), len(b.MonoStats))
	}
	for col, sa := range a.MonoStats {
		sb := b.MonoStats[col]
		if sa.NodesVisited != sb.NodesVisited || len(sa.Deficient) != len(sb.Deficient) {
			return fmt.Errorf("MonoStats[%s]: %+v vs %+v", col, sa, sb)
		}
		for i := range sa.Deficient {
			if sa.Deficient[i] != sb.Deficient[i] {
				return fmt.Errorf("MonoStats[%s].Deficient: %v vs %v", col, sa.Deficient, sb.Deficient)
			}
		}
	}
	if a.MultiStats != b.MultiStats {
		return fmt.Errorf("MultiStats %+v vs %+v", a.MultiStats, b.MultiStats)
	}
	return nil
}

// TestSearchSketchMatchesSearchContext is the core differential guard:
// the sketch search must reproduce the row-scan reference search
// exactly — same frontiers, losses, suppression, stats — for every
// chunking of the input, worker count, minimality rule and strategy.
// Its bin statistic, AutoEpsilon's input, must equal the bins of the
// table the reference actually transforms.
func TestSearchSketchMatchesSearchContext(t *testing.T) {
	tbl, trees := twoColumnTable(t)
	cipher, err := crypt.NewCipher([]byte("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	quasi := tbl.Schema().QuasiColumns()
	ctx := context.Background()
	for _, k := range []int{1, 2, 3, 6} {
		for _, aggressive := range []bool{false, true} {
			for _, strategy := range []Strategy{StrategyAuto, StrategyExhaustive, StrategyGreedy} {
				cfg := Config{K: k, Trees: trees, Strategy: strategy, Aggressive: aggressive}
				ref, work, refErr := searchTable(ctx, tbl, cfg)
				var refBins map[string]int
				if refErr == nil {
					out, err := TransformContext(ctx, work, ref.UltiGens, ref.EffectiveK, cipher, 1)
					if err != nil {
						t.Fatal(err)
					}
					if refBins, err = anonymity.Bins(out, quasi); err != nil {
						t.Fatal(err)
					}
				}
				for _, chunk := range []int{1, 3, 5, 12, 100} {
					for _, workers := range []int{1, 2, 8} {
						cfg.Workers = workers
						sk := sketchFromSegments(t, tbl, trees, chunk)
						got, gotErr := SearchSketch(ctx, sk, cfg)
						name := fmt.Sprintf("k=%d aggressive=%v strategy=%v chunk=%d workers=%d",
							k, aggressive, strategy, chunk, workers)
						if (refErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: verdicts differ: table %v, sketch %v", name, refErr, gotErr)
						}
						if refErr != nil {
							continue
						}
						if err := searchResultsEqual(ref, got); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						gotBins, err := got.GeneralizedBins(quasi, got.UltiGens)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if len(refBins) != len(gotBins) {
							t.Fatalf("%s: bins %v vs %v", name, refBins, gotBins)
						}
						for key, n := range refBins {
							if gotBins[key] != n {
								t.Fatalf("%s: bin %q: %d vs %d", name, key, n, gotBins[key])
							}
						}
					}
				}
			}
		}
	}
}

// TestSearchResultGeneralizedBinsErrors pins the bin statistic's
// rejections: a column without a frontier in gens, and a column the
// search never saw.
func TestSearchResultGeneralizedBinsErrors(t *testing.T) {
	tbl, trees := twoColumnTable(t)
	sk := sketchFromSegments(t, tbl, trees, 4)
	res, err := SearchSketch(context.Background(), sk, Config{K: 2, Trees: trees})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"age", "role"}
	if _, err := res.GeneralizedBins(cols, map[string]dht.GenSet{"age": res.UltiGens["age"]}); err == nil {
		t.Error("missing frontier accepted")
	}
	if _, err := res.GeneralizedBins([]string{"age", "ward"}, res.UltiGens); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := (&SearchResult{}).GeneralizedBins(cols, res.UltiGens); err == nil {
		t.Error("result without tuples accepted")
	}
}

// TestSearchSketchMatchesOn20k runs the differential on the benchmark
// fixture — realistic trees, Zipf-skewed correlated data, the greedy
// ascent path — at one odd chunk size that forces many partial
// segments.
func TestSearchSketchMatchesOn20k(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row search x2 in -short mode")
	}
	tbl, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	trees := ontology.Trees()
	ctx := context.Background()
	for _, aggressive := range []bool{false, true} {
		cfg := Config{K: 25, Trees: trees, Aggressive: aggressive, Workers: 2}
		ref, _, err := searchTable(ctx, tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sk := sketchFromSegments(t, tbl, trees, 7777)
		got, err := SearchSketch(ctx, sk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := searchResultsEqual(ref, got); err != nil {
			t.Fatalf("aggressive=%v: %v", aggressive, err)
		}
	}
}

// TestSearchSetupMatchesSearchSketch pins the shared setup the
// AutoEpsilon re-search runs over: on the 20k fixture, one setup
// searched at ε=0 and then at a raised ε must equal two independent
// SearchSketch calls — frontiers, losses, suppression, stats and bin
// statistic — under both rules. The aggressive rule's second search
// suppresses more than its first, so it must start from the setup's
// pre-suppression tuples, not from the first search's survivors.
func TestSearchSetupMatchesSearchSketch(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row searches in -short mode")
	}
	tbl, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	trees := ontology.Trees()
	quasi := tbl.Schema().QuasiColumns()
	sk := sketchFromSegments(t, tbl, trees, 4096)
	ctx := context.Background()
	for _, aggressive := range []bool{false, true} {
		cfg := Config{K: 20, Trees: trees, Aggressive: aggressive, Workers: 2}
		setup, err := NewSearchSetup(ctx, sk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var suppressed []int
		for _, eps := range []int{0, 15} {
			got, err := setup.Search(ctx, eps)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Epsilon = eps
			want, err := SearchSketch(ctx, sk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("aggressive=%v eps=%d", aggressive, eps)
			if err := searchResultsEqual(got, want); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gotBins, err := got.GeneralizedBins(quasi, got.UltiGens)
			if err != nil {
				t.Fatal(err)
			}
			wantBins, err := want.GeneralizedBins(quasi, want.UltiGens)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotBins) != len(wantBins) {
				t.Fatalf("%s: %d bins vs %d", name, len(gotBins), len(wantBins))
			}
			for key, n := range wantBins {
				if gotBins[key] != n {
					t.Fatalf("%s: bin %q: %d vs %d", name, key, gotBins[key], n)
				}
			}
			suppressed = append(suppressed, got.Suppressed)
		}
		if aggressive && !(0 < suppressed[0] && suppressed[0] < suppressed[1]) {
			t.Fatalf("aggressive searches suppressed %v rows; want a first search that suppresses and a second that suppresses more", suppressed)
		}
	}
}

// TestSketchEmptyAndErrors pins the sketch constructor/ingest edges.
func TestSketchEmptyAndErrors(t *testing.T) {
	tbl, trees := twoColumnTable(t)
	// No quasi columns.
	noQuasi := relation.NewTable(relation.MustSchema(relation.Column{Name: "id", Kind: relation.Identifying}))
	if _, err := NewSketch(noQuasi.Schema(), trees); err == nil {
		t.Error("schema without quasi columns accepted")
	}
	// Missing tree.
	if _, err := NewSketch(tbl.Schema(), map[string]*dht.Tree{"age": trees["age"]}); err == nil {
		t.Error("missing DHT accepted")
	}
	// Unresolvable value leaves the sketch untouched.
	sk, err := NewSketch(tbl.Schema(), trees)
	if err != nil {
		t.Fatal(err)
	}
	bad := relation.NewTable(tbl.Schema())
	if err := bad.AppendRow([]string{"1", "not-a-number", "Physician"}); err != nil {
		t.Fatal(err)
	}
	if err := sk.Add(bad); err == nil {
		t.Error("unresolvable value accepted")
	}
	if sk.Rows() != 0 {
		t.Errorf("failed Add moved counts: rows=%d", sk.Rows())
	}
	// Empty sketch searches like an empty table: minimal frontiers.
	res, err := SearchSketch(context.Background(), sk, Config{K: 3, Trees: trees})
	if err != nil {
		t.Fatal(err)
	}
	for col, g := range res.UltiGens {
		if !g.Equal(res.MinGens[col]) {
			t.Errorf("empty sketch generalized column %s", col)
		}
	}
}

// roleColumns builds a schema of n quasi columns that all use the role
// tree, plus the tree map.
func roleColumns(t *testing.T, n int) (*relation.Schema, map[string]*dht.Tree) {
	t.Helper()
	cols := make([]relation.Column, 0, n)
	trees := map[string]*dht.Tree{}
	roles := roleTree(t)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("q%d", i)
		cols = append(cols, relation.Column{Name: name, Kind: relation.QuasiCategorical})
		trees[name] = roles
	}
	schema, err := relation.NewSchema(cols)
	if err != nil {
		t.Fatal(err)
	}
	return schema, trees
}

// TestSketchKeyWidthBoundary pins the 64-bit joint-bin key limit. The
// role tree has 11 nodes, so every role column takes a 4-bit field: 16
// columns fill the key exactly and search like the row oracle, and 17
// columns need 68 bits and are refused.
func TestSketchKeyWidthBoundary(t *testing.T) {
	schema, trees := roleColumns(t, 16)
	tbl := relation.NewTable(schema)
	leaves := []string{"Physician", "Surgeon", "Nurse", "Pharmacist", "Clerk", "Manager"}
	for r := 0; r < 40; r++ {
		row := make([]string, len(trees))
		for c := range row {
			row[c] = leaves[(r/4+c)%len(leaves)]
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	sk := sketchFromSegments(t, tbl, trees, 7)
	if w := sk.layout.width(); w != 64 {
		t.Fatalf("16 role columns laid out in %d bits, want 64", w)
	}
	ctx := context.Background()
	// Groups of 4 rows share a tuple, so k=8 needs lattice merges.
	cfg := Config{K: 8, Trees: trees, Strategy: StrategyGreedy}
	ref, _, err := searchTable(ctx, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchSketch(ctx, sk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.MultiStats.GreedyMerges == 0 {
		t.Fatal("fixture needed no merges; the full-width keys are never re-keyed")
	}
	if err := searchResultsEqual(ref, got); err != nil {
		t.Fatal(err)
	}

	wide, wideTrees := roleColumns(t, 17)
	_, err = NewSketch(wide, wideTrees)
	if err == nil || !strings.Contains(err.Error(), "68-bit") {
		t.Fatalf("17 role columns: got %v, want a refusal naming the 68-bit key", err)
	}
}

// BenchmarkSketchAdd1M is the sketch ingest layer: one NewSketch and
// one Add per segment over a million datagen rows (seed 1), cut into
// relation.DefaultChunk segments before the timer starts. It reports
// rows/s and allocations.
func BenchmarkSketchAdd1M(b *testing.B) {
	tbl, err := datagen.Generate(datagen.Config{Rows: 1000000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	rows, schema := tbl.NumRows(), tbl.Schema()
	segs := segmentsOf(b, tbl)
	tbl = nil
	trees := ontology.Trees()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk, err := NewSketch(schema, trees)
		if err != nil {
			b.Fatal(err)
		}
		for _, seg := range segs {
			if err := sk.Add(seg); err != nil {
				b.Fatal(err)
			}
		}
		if sk.Rows() != rows {
			b.Fatalf("sketched %d rows, want %d", sk.Rows(), rows)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// segmentsOf cuts tbl into its relation.DefaultChunk segments.
func segmentsOf(tb testing.TB, tbl *relation.Table) []*relation.Table {
	var segs []*relation.Table
	src := tbl.Segments(relation.DefaultChunk)
	for {
		seg, err := src.Next()
		if err == io.EOF {
			return segs
		}
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, seg)
	}
}

// FuzzSketchIngest cross-checks segment-at-a-time sketch ingest against
// the materialized path on arbitrary CSV bytes: the sketch's marginal
// histograms must equal LeafHistogramCodes over the whole table, and
// its joint tuple counts the row-joined leaf tuples.
func FuzzSketchIngest(f *testing.F) {
	f.Add([]byte("id,age,role\n1,5,Physician\n2,45,Clerk\n3,5,Physician\n"), 1)
	f.Add([]byte("id,age,role\n1,79,Nurse\n2,0,Manager\n"), 2)
	f.Add([]byte("id,age,role\n"), 3)
	f.Add([]byte("role,id,age\n\"Ph\"\"ys\",x,20\n"), 1)
	f.Fuzz(func(t *testing.T, csv []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		chunk = chunk%5 + 1
		schema := relation.MustSchema(
			relation.Column{Name: "id", Kind: relation.Identifying},
			relation.Column{Name: "age", Kind: relation.QuasiNumeric},
			relation.Column{Name: "role", Kind: relation.QuasiCategorical},
		)
		ageTree, err := dht.NewNumeric("age", 0, 80, []float64{20, 40, 60})
		if err != nil {
			t.Fatal(err)
		}
		trees := map[string]*dht.Tree{"age": ageTree, "role": roleTree(t)}

		// Materialized reference.
		tbl, tblErr := relation.ReadCSV(bytes.NewReader(csv), schema)
		var refHists map[string][]int
		refErr := tblErr
		if tblErr == nil {
			refHists = map[string][]int{}
			for _, col := range schema.QuasiColumns() {
				ci, _ := schema.Index(col)
				h, err := infoloss.LeafHistogramCodes(trees[col], tbl.DictValues(ci), tbl.Codes(ci))
				if err != nil {
					refErr = err
					break
				}
				refHists[col] = h
			}
		}

		// Streaming sketch.
		sk, err := NewSketch(schema, trees)
		if err != nil {
			t.Fatal(err)
		}
		var skErr error
		sr, err := relation.NewSegmentReader(bytes.NewReader(csv), schema, chunk)
		if err != nil {
			skErr = err
		} else {
			for {
				seg, err := sr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					skErr = err
					break
				}
				if err := sk.Add(seg); err != nil {
					skErr = err
					break
				}
			}
		}

		if (refErr == nil) != (skErr == nil) {
			t.Fatalf("verdicts differ: table %v, sketch %v", refErr, skErr)
		}
		if refErr != nil {
			return
		}
		if sk.Rows() != tbl.NumRows() {
			t.Fatalf("rows %d vs %d", sk.Rows(), tbl.NumRows())
		}
		quasi := schema.QuasiColumns()
		for i, col := range quasi {
			ref := refHists[col]
			for id, n := range ref {
				if sk.hist[i][id] != n {
					t.Fatalf("column %s hist[%d]: %d vs %d", col, id, sk.hist[i][id], n)
				}
			}
		}
		// Joint tuples: fold table rows into leaf-tuple counts.
		refTuples := map[string]int{}
		leaves := make([][]dht.NodeID, len(quasi))
		for i, col := range quasi {
			ci, _ := schema.Index(col)
			dict, codes := tbl.DictValues(ci), tbl.Codes(ci)
			leafOf := make([]dht.NodeID, len(dict))
			used := make([]bool, len(dict))
			for _, code := range codes {
				used[code] = true
			}
			for code, v := range dict {
				if !used[code] {
					continue
				}
				leaf, err := trees[col].ResolveLeaf(v)
				if err != nil {
					t.Fatal(err)
				}
				leafOf[code] = leaf
			}
			leaves[i] = make([]dht.NodeID, len(codes))
			for r, code := range codes {
				leaves[i][r] = leafOf[code]
			}
		}
		var sb strings.Builder
		for r := 0; r < tbl.NumRows(); r++ {
			sb.Reset()
			for i := range quasi {
				fmt.Fprintf(&sb, "%d|", leaves[i][r])
			}
			refTuples[sb.String()]++
		}
		gotLeaves, gotCounts := sk.decodeTuples()
		gotTuples := map[string]int{}
		for ti := range gotCounts {
			sb.Reset()
			for i := range quasi {
				fmt.Fprintf(&sb, "%d|", gotLeaves[i][ti])
			}
			gotTuples[sb.String()] += gotCounts[ti]
		}
		if len(refTuples) != len(gotTuples) {
			t.Fatalf("tuple sets differ: %d vs %d", len(refTuples), len(gotTuples))
		}
		for key, n := range refTuples {
			if gotTuples[key] != n {
				t.Fatalf("tuple %q: %d vs %d", key, n, gotTuples[key])
			}
		}
	})
}

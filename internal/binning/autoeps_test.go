package binning

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// weightedTuple is n rows sharing one quasi-tuple of leaf values.
type weightedTuple struct {
	values []string
	n      int
}

// tupleSketch sketches a table with an identifying column and one
// categorical quasi column per tree of cols, holding the tuples.
func tupleSketch(tb testing.TB, cols []string, trees map[string]*dht.Tree, tuples []weightedTuple) *Sketch {
	tb.Helper()
	columns := []relation.Column{{Name: "id", Kind: relation.Identifying}}
	for _, col := range cols {
		columns = append(columns, relation.Column{Name: col, Kind: relation.QuasiCategorical})
	}
	tbl := relation.NewTable(relation.MustSchema(columns...))
	for _, tup := range tuples {
		for i := 0; i < tup.n; i++ {
			if err := tbl.AppendRow(append([]string{strconv.Itoa(tbl.NumRows())}, tup.values...)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	sk, err := NewSketch(tbl.Schema(), trees)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sk.Add(tbl); err != nil {
		tb.Fatal(err)
	}
	return sk
}

// freshAutoEpsilon is SearchAutoEpsilon's reference: Search at epsilon,
// then Search afresh at the conservative ε when that is larger.
func freshAutoEpsilon(ctx context.Context, setup *SearchSetup, epsilon int, cols []string, wmdLen int) (*SearchResult, error) {
	first, err := setup.Search(ctx, epsilon)
	if err != nil {
		return nil, err
	}
	bins, err := first.GeneralizedBins(cols, first.UltiGens)
	if err != nil {
		return nil, err
	}
	if eps := EpsilonForMark(bins, wmdLen); eps > epsilon {
		return setup.Search(ctx, eps)
	}
	return first, nil
}

// certificate reports the first search's bound at epsilon and whether
// mono-attribute binning at K+raised reproduces its stage 2: the two
// conditions under which SearchAutoEpsilon keeps the first result.
func certificate(tb testing.TB, setup *SearchSetup, epsilon, raised int) (holds int, same bool) {
	tb.Helper()
	ctx := context.Background()
	k := setup.cfg.K + epsilon
	mono, err := setup.mono(ctx, k)
	if err != nil {
		tb.Fatal(err)
	}
	holds = math.MaxInt
	if _, err := setup.joint(ctx, mono, k, &holds); err != nil {
		tb.Fatal(err)
	}
	again, err := setup.mono(ctx, setup.cfg.K+raised)
	if err != nil {
		tb.Fatal(err)
	}
	return holds, again.sameFrontiers(mono)
}

// autoEpsilonFixture is a two-column table whose greedy ascent at
// K=5 merges a frontier member and whose conservative ε for a mark of
// wmdLen bits is 2.
type autoEpsilonFixture struct {
	cols   []string
	trees  map[string]*dht.Tree
	tuples []weightedTuple
	wmdLen int
}

func (fx autoEpsilonFixture) setup(t *testing.T) *SearchSetup {
	t.Helper()
	sk := tupleSketch(t, fx.cols, fx.trees, fx.tuples)
	setup, err := NewSearchSetup(context.Background(), sk, Config{K: 5, Trees: fx.trees, Strategy: StrategyGreedy, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

// checkRaised runs SearchAutoEpsilon on fx, requires it to equal the
// fresh reference at ε = 2, and returns it with the search at ε = 0 for
// the caller to compare.
func checkRaised(t *testing.T, fx autoEpsilonFixture) (got, first *SearchResult) {
	t.Helper()
	ctx := context.Background()
	setup := fx.setup(t)
	got, err := setup.SearchAutoEpsilon(ctx, 0, fx.cols, fx.wmdLen)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshAutoEpsilon(ctx, setup, 0, fx.cols, fx.wmdLen)
	if err != nil {
		t.Fatal(err)
	}
	if want.EffectiveK != 7 {
		t.Fatalf("fixture raises k to %d, want 7", want.EffectiveK)
	}
	if err := searchResultsEqual(got, want); err != nil {
		t.Fatal(err)
	}
	if first, err = setup.Search(ctx, 0); err != nil {
		t.Fatal(err)
	}
	return got, first
}

// xyTrees builds column x, root R over P{p1,p2} and Q{q...}, and
// column y, root S over {y1,y2}.
func xyTrees(t *testing.T, q ...string) map[string]*dht.Tree {
	t.Helper()
	var qs []dht.Spec
	for _, v := range q {
		qs = append(qs, dht.Spec{Value: v})
	}
	x, err := dht.NewCategorical("x", dht.Spec{Value: "R", Children: []dht.Spec{
		{Value: "P", Children: []dht.Spec{{Value: "p1"}, {Value: "p2"}}},
		{Value: "Q", Children: qs},
	}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := dht.NewCategorical("y", dht.Spec{Value: "S", Children: []dht.Spec{{Value: "y1"}, {Value: "y2"}}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dht.Tree{"x": x, "y": y}
}

// TestSearchAutoEpsilonRefusesMovedFrontier pins the first refusal: at
// K=5 the ascent merges P, whose leaf p1 holds 6 rows, and its bound
// holds up to k=10; but at k+ε=7 mono-attribute binning stops at P, so
// the raised search starts from other minimal frontiers and the first
// result's MinGens would be wrong.
func TestSearchAutoEpsilonRefusesMovedFrontier(t *testing.T) {
	fx := autoEpsilonFixture{
		cols:  []string{"x", "y"},
		trees: xyTrees(t, "q1", "q2"),
		tuples: []weightedTuple{
			{[]string{"p1", "y1"}, 3}, {[]string{"p1", "y2"}, 3},
			{[]string{"p2", "y1"}, 10}, {[]string{"p2", "y2"}, 10},
			{[]string{"q1", "y1"}, 10}, {[]string{"q1", "y2"}, 10},
			{[]string{"q2", "y1"}, 10}, {[]string{"q2", "y2"}, 10},
		},
		wmdLen: 10,
	}
	holds, same := certificate(t, fx.setup(t), 0, 2)
	if holds != 10 || same {
		t.Fatalf("certificate: holds %d, same frontiers %v; want 10, false", holds, same)
	}
	got, first := checkRaised(t, fx)
	if err := gensEqual(got.MinGens, first.MinGens); err == nil {
		t.Fatal("raised search kept the first search's minimal frontiers; the fixture pins nothing")
	}
}

// TestSearchAutoEpsilonRefusesEarlierHelper pins the second refusal.
// At K=5 the ascent twice passes over P, which ranks first by delta but
// whose bins (6 rows each) are all at or above k: it merges Q, then S,
// which folds P's bins into bins of 12, so the bound is 6 although no
// bin ends below 12. At k+ε=7 P's bins are thin, P helps and the raised
// ascent takes another path to other frontiers, though mono-attribute
// binning finds the same minimal frontiers.
func TestSearchAutoEpsilonRefusesEarlierHelper(t *testing.T) {
	fx := autoEpsilonFixture{
		cols:  []string{"x", "y"},
		trees: xyTrees(t, "q1", "q2", "q3"),
		tuples: []weightedTuple{
			{[]string{"p1", "y1"}, 6}, {[]string{"p1", "y2"}, 6},
			{[]string{"p2", "y1"}, 6}, {[]string{"p2", "y2"}, 6},
			{[]string{"q1", "y1"}, 7}, {[]string{"q1", "y2"}, 1},
			{[]string{"q2", "y1"}, 10}, {[]string{"q2", "y2"}, 1},
			{[]string{"q3", "y1"}, 10}, {[]string{"q3", "y2"}, 1},
		},
		wmdLen: 3,
	}
	holds, same := certificate(t, fx.setup(t), 0, 2)
	if holds != 6 || !same {
		t.Fatalf("certificate: holds %d, same frontiers %v; want 6, true", holds, same)
	}
	got, first := checkRaised(t, fx)
	if err := gensEqual(got.UltiGens, first.UltiGens); err == nil {
		t.Fatal("raised ascent reached the first search's frontiers; the fixture pins nothing")
	}
	if first.MultiStats.GreedyMerges != 2 {
		t.Fatalf("first ascent made %d merges, want 2", first.MultiStats.GreedyMerges)
	}
}

// TestSearchAutoEpsilonCertifies pins the case the certificate is for:
// at K=5 the ascent merges P, the one helping move ranked first, and
// every bin then holds at least 10 rows; at k+ε=7 mono-attribute
// binning finds the same minimal frontiers, so the first result stands.
func TestSearchAutoEpsilonCertifies(t *testing.T) {
	fx := autoEpsilonFixture{
		cols:  []string{"x", "y"},
		trees: xyTrees(t, "q1", "q2"),
		tuples: []weightedTuple{
			{[]string{"p1", "y1"}, 4}, {[]string{"p1", "y2"}, 4},
			{[]string{"p2", "y1"}, 10}, {[]string{"p2", "y2"}, 10},
			{[]string{"q1", "y1"}, 10}, {[]string{"q1", "y2"}, 10},
			{[]string{"q2", "y1"}, 10}, {[]string{"q2", "y2"}, 10},
		},
		wmdLen: 9,
	}
	holds, same := certificate(t, fx.setup(t), 0, 2)
	if holds != 10 || !same {
		t.Fatalf("certificate: holds %d, same frontiers %v; want 10, true", holds, same)
	}
	got, first := checkRaised(t, fx)
	if err := gensEqual(got.UltiGens, first.UltiGens); err != nil || got.MultiStats.GreedyMerges != 1 {
		t.Fatalf("certified result left the first search's frontiers (%v) or made %d merges, want 1",
			err, got.MultiStats.GreedyMerges)
	}
}

// TestSearchAutoEpsilonCertifies200k checks the certificate on the
// shape of a bulk release: at 200k rows under the core defaults (K=20,
// a 20-bit mark replicated 4 times), under both rules, AutoEpsilon
// raises k, the raised search keeps the first search's frontiers, and
// the result equals the fresh searches. At 20k rows, by contrast, the
// raised k moves the minimal frontiers and the fresh search runs.
func TestSearchAutoEpsilonCertifies200k(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-row searches in -short mode")
	}
	tbl, err := datagen.Generate(datagen.Config{Rows: 200000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	trees := ontology.Trees()
	quasi := tbl.Schema().QuasiColumns()
	sk := sketchFromSegments(t, tbl, trees, relation.DefaultChunk)
	tbl = nil
	ctx := context.Background()
	const wmdLen = 80
	for _, aggressive := range []bool{false, true} {
		setup, err := NewSearchSetup(ctx, sk, Config{K: 20, Trees: trees, Aggressive: aggressive, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := setup.SearchAutoEpsilon(ctx, 0, quasi, wmdLen)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshAutoEpsilon(ctx, setup, 0, quasi, wmdLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := searchResultsEqual(got, want); err != nil {
			t.Fatalf("aggressive=%v: %v", aggressive, err)
		}
		raised := got.EffectiveK - 20
		if raised == 0 {
			t.Fatalf("aggressive=%v: ε was not raised; the fixture pins nothing", aggressive)
		}
		holds, same := certificate(t, setup, 0, raised)
		if !same || got.EffectiveK > holds {
			t.Fatalf("aggressive=%v: certificate refused k+ε=%d (holds %d, same frontiers %v)",
				aggressive, got.EffectiveK, holds, same)
		}
	}
}

// FuzzSearchAutoEpsilonMatchesSearch is the certified re-search's
// differential: over random 2-3 column sketches, K, ε, mark lengths,
// usage metrics, both minimality rules and every strategy,
// SearchAutoEpsilon equals Search at ε followed by a fresh Search at
// the conservative ε when that is larger — results and verdicts.
func FuzzSearchAutoEpsilonMatchesSearch(f *testing.F) {
	f.Add(int64(1), seededBytes(1, 120), uint8(3), uint8(0), uint8(40), uint8(0))
	f.Add(int64(2), seededBytes(2, 300), uint8(5), uint8(1), uint8(90), uint8(1))
	f.Add(int64(3), seededBytes(3, 600), uint8(2), uint8(0), uint8(200), uint8(2))
	f.Add(int64(4), seededBytes(4, 900), uint8(8), uint8(2), uint8(64), uint8(5))
	f.Add(int64(5), []byte{}, uint8(1), uint8(0), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, data []byte, kRaw, epsRaw, markRaw, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		cols := make([]string, 2+rng.Intn(2))
		trees := make(map[string]*dht.Tree, len(cols))
		maxGens := make(map[string]dht.GenSet)
		leaves := make([][]dht.NodeID, len(cols))
		for ci := range cols {
			cols[ci] = fmt.Sprintf("q%d", ci)
			tree := randomCatTree(rng)
			trees[cols[ci]] = tree
			leaves[ci] = tree.Leaves()
			if rng.Intn(3) == 0 {
				g, err := dht.NewGenSet(tree, tree.Children(tree.Root()))
				if err != nil {
					t.Fatal(err)
				}
				maxGens[cols[ci]] = g
			}
		}
		var tuples []weightedTuple
		for i := 0; i+len(cols) < len(data); i += len(cols) + 1 {
			values := make([]string, len(cols))
			for ci, col := range cols {
				values[ci] = trees[col].Value(leaves[ci][int(data[i+ci])%len(leaves[ci])])
			}
			tuples = append(tuples, weightedTuple{values, 1 + int(data[i+len(cols)])%6})
		}
		cfg := Config{
			K:          int(kRaw)%10 + 1,
			Trees:      trees,
			MaxGens:    maxGens,
			Strategy:   Strategy(flags % 3),
			Aggressive: flags&4 != 0,
			Workers:    1,
		}
		if flags&8 != 0 {
			cfg.EnumLimit = 16
		}
		epsilon, wmdLen := int(epsRaw)%4, int(markRaw)
		sk := tupleSketch(t, cols, trees, tuples)
		ctx := context.Background()
		setup, err := NewSearchSetup(ctx, sk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := setup.SearchAutoEpsilon(ctx, epsilon, cols, wmdLen)
		want, wantErr := freshAutoEpsilon(ctx, setup, epsilon, cols, wmdLen)
		name := fmt.Sprintf("K=%d ε=%d mark=%d strategy=%v aggressive=%v, %d tuples",
			cfg.K, epsilon, wmdLen, cfg.Strategy, cfg.Aggressive, len(tuples))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: verdicts differ: certified %v, fresh %v", name, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if err := searchResultsEqual(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

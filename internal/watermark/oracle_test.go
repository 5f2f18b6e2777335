package watermark

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/pool"
	"repro/internal/relation"
)

// This file holds full-table scans of embedding and detection, the
// differential oracles of FuzzWalkMatchesScan. Where production code
// selects first and then walks the selected rows, each scan visits
// every row, reads its identifier from the row's current cells, tests
// Equation (5) and walks the row at once, sharded into contiguous row
// ranges.

// add accumulates another shard's embedding counters.
func (s *EmbedStats) add(o EmbedStats) {
	s.TuplesSelected += o.TuplesSelected
	s.BitsEmbedded += o.BitsEmbedded
	s.CellsChanged += o.CellsChanged
	s.ZeroBandwidth += o.ZeroBandwidth
}

// add accumulates another shard's detection counters.
func (s *DetectStats) add(o DetectStats) {
	s.TuplesSelected += o.TuplesSelected
	s.VotesCast += o.VotesCast
	s.BitsRead += o.BitsRead
	s.SkippedCells += o.SkippedCells
}

// scanSetup resolves the identifying column and the watermarked column
// indexes the scans address rows through.
func scanSetup(tbl *relation.Table, identCol string, columns map[string]ColumnSpec) (int, []string, map[string]int, error) {
	identIdx, err := tbl.Schema().Index(identCol)
	if err != nil {
		return 0, nil, nil, err
	}
	cols := sortColumns(columns)
	colIdx := make(map[string]int, len(cols))
	for _, col := range cols {
		ci, err := tbl.Schema().Index(col)
		if err != nil {
			return 0, nil, nil, err
		}
		colIdx[col] = ci
	}
	return identIdx, cols, colIdx, nil
}

// scanDetect is the full-table detection scan: per-shard votes cast on
// one board in shard order, then folded.
func scanDetect(ctx context.Context, tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (DetectResult, error) {
	var res DetectResult
	if err := p.Validate(); err != nil {
		return res, err
	}
	identIdx, _, _, err := scanSetup(tbl, identCol, columns)
	if err != nil {
		return res, err
	}
	plans, err := buildDetectPlans(ctx, tbl, columns, p)
	if err != nil {
		return res, err
	}
	prf1 := crypt.NewPRF(p.Key.K1)
	prf2 := crypt.NewPRF(p.Key.K2)
	chunks := pool.Chunks(p.Workers, tbl.NumRows())
	type vote struct {
		pos int
		bit bool
	}
	shardVotes := make([][]vote, len(chunks))
	shardStats := make([]DetectStats, len(chunks))
	err = pool.ForEachChunkCtx(ctx, p.Workers, tbl.NumRows(), func(si, lo, hi int) error {
		shard := &shardStats[si]
		for row := lo; row < hi; row++ {
			ident := []byte(tbl.CellAt(row, identIdx))
			if !prf1.Selects(ident, p.Key.Eta) {
				continue
			}
			shard.TuplesSelected++
			for pi := range plans {
				plan := &plans[pi]
				v := &plan.verdicts[tbl.CodeAt(row, plan.idx)]
				shard.BitsRead += v.read
				if !v.ok {
					shard.SkippedCells++
					continue
				}
				shardVotes[si] = append(shardVotes[si], vote{p.positionOf(prf2, ident, plan.colKey), v.bit})
				shard.VotesCast++
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	board := bitstr.NewVoteBoard(p.wmdLen())
	for si := range chunks {
		for _, v := range shardVotes[si] {
			board.Vote(v.pos, v.bit, 1)
		}
		res.Stats.add(shardStats[si])
	}
	folded, err := board.FoldInto(p.Mark.Len())
	if err != nil {
		return res, err
	}
	res.Mark = folded.Resolve()
	res.Confidence = folded.Confidence()
	return res, nil
}

// scanEmbed is the full-table embedding scan: every shard derives each
// row's anchor from the row's current cells and marks it at once. The
// error of the lowest failing shard — whose scan stops at its first bad
// row — is the one reported.
func scanEmbed(ctx context.Context, tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (EmbedStats, error) {
	var stats EmbedStats
	if err := p.Validate(); err != nil {
		return stats, err
	}
	if len(columns) == 0 {
		return stats, fmt.Errorf("watermark: no columns to embed into")
	}
	identIdx, cols, colIdx, err := scanSetup(tbl, identCol, columns)
	if err != nil {
		return stats, err
	}
	plans := make([]embedPlan, len(cols))
	for i, col := range cols {
		spec := columns[col]
		if err := spec.validate(col); err != nil {
			return stats, err
		}
		plans[i] = buildEmbedPlan(tbl, col, colIdx[col], spec, p.BoundaryPermutation)
	}
	prf1 := crypt.NewPRF(p.Key.K1)
	prf2 := crypt.NewPRF(p.Key.K2)
	wmd := p.Mark.Duplicate(p.Duplication)
	shardStats := make([]EmbedStats, len(pool.Chunks(p.Workers, tbl.NumRows())))
	err = pool.ForEachChunkCtx(ctx, p.Workers, tbl.NumRows(), func(si, lo, hi int) error {
		shard := &shardStats[si]
		for row := lo; row < hi; row++ {
			ident := []byte(tbl.CellAt(row, identIdx))
			if !prf1.Selects(ident, p.Key.Eta) {
				continue
			}
			shard.TuplesSelected++
			for pi := range plans {
				plan := &plans[pi]
				code := tbl.CodeAt(row, plan.idx)
				newCode, embedded, err := embedCode(plan, code, prf2, ident, wmd.Get(p.positionOf(prf2, ident, plan.colKey)))
				if err != nil {
					return fmt.Errorf("watermark: row %d column %s: %w", row, plan.col, err)
				}
				shard.BitsEmbedded += embedded
				if embedded == 0 {
					shard.ZeroBandwidth++
				}
				if newCode != code {
					tbl.SetCodeAt(row, plan.idx, newCode)
					shard.CellsChanged++
				}
			}
		}
		return nil
	})
	for _, s := range shardStats {
		stats.add(s)
	}
	return stats, err
}

// attackPool is every value of the column's tree plus one value outside
// it, so an altered cell may land on the frontier, above or below it,
// or out of the domain.
func attackPool(spec ColumnSpec) []string {
	out := []string{"not-in-domain"}
	for id := 0; id < spec.Tree.Size(); id++ {
		out = append(out, spec.Tree.Value(dht.NodeID(id)))
	}
	return out
}

// FuzzWalkMatchesScan checks select-then-walk against the full-table
// scans: EmbedContext must write the oracle's bytes and statistics, and
// DetectAccum over the whole table and over random segments must return
// the oracle's whole DetectResult, on the clean marked table and on
// copies with altered and deleted rows, for random η, duplication,
// voting and boundary policy, column salt, table shape and worker count.
func FuzzWalkMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0x1f), uint8(1), uint8(40), uint8(30))
	f.Add(int64(3), uint8(3), uint8(2), uint8(0x0a), uint8(2), uint8(90), uint8(5))
	f.Add(int64(4), uint8(2), uint8(3), uint8(0x15), uint8(3), uint8(255), uint8(200))
	f.Add(int64(5), uint8(0), uint8(0), uint8(0x08), uint8(3), uint8(20), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, eta, dup, flags, workerSel, alterPct, deletePct uint8) {
		var fx *fixture
		if flags&4 != 0 {
			fx = zipRoleFixture(t, 400)
		} else {
			fx = newFixture(t, 400, 1)
		}
		rng := rand.New(rand.NewSource(seed))
		digits := make([]byte, 4+rng.Intn(20))
		for i := range digits {
			digits[i] = '0' + byte(rng.Intn(2))
		}
		mark, err := bitstr.FromString(string(digits))
		if err != nil {
			t.Fatal(err)
		}
		p := Params{
			Key:                    crypt.NewWatermarkKeyFromSecret(fmt.Sprint(seed), uint64(eta%8)+1),
			Mark:                   mark,
			Duplication:            int(dup%4) + 1,
			WeightedVoting:         flags&1 != 0,
			BoundaryPermutation:    flags&2 != 0,
			SaltPositionWithColumn: flags&8 == 0,
			Workers:                []int{1, 2, 3, 8}[workerSel%4],
		}
		identCol := "ssn"
		ctx := context.Background()

		walked, scanned := fx.tbl.Clone(), fx.tbl.Clone()
		ws, werr := EmbedContext(ctx, walked, identCol, fx.columns, p)
		ss, serr := scanEmbed(ctx, scanned, identCol, fx.columns, p)
		if werr != nil || serr != nil {
			t.Fatalf("clean embed failed: walk %v, scan %v", werr, serr)
		}
		if ws != ss {
			t.Fatalf("embed stats: walk %+v, scan %+v", ws, ss)
		}
		tablesIdentical(t, walked, scanned)

		attacked := walked.Clone()
		pools := map[string][]string{}
		for col, spec := range fx.columns {
			pools[col] = attackPool(spec)
		}
		if _, err := attack.AlterSubset(attacked, pools, float64(alterPct%101)/100, rng); err != nil {
			t.Fatal(err)
		}
		if _, err := attack.DeleteRandom(attacked, float64(deletePct%101)/100, rng); err != nil {
			t.Fatal(err)
		}
		for _, suspect := range []*relation.Table{walked, attacked} {
			got, err := detect(suspect, identCol, fx.columns, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scanDetect(ctx, suspect, identCol, fx.columns, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("detect: walk %+v, scan %+v", got, want)
			}
			// The segment-at-a-time accumulator walks the same votes.
			accum, err := NewDetectAccum(identCol, fx.columns, p)
			if err != nil {
				t.Fatal(err)
			}
			src := suspect.Segments(1 + rng.Intn(200))
			for {
				seg, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := accum.AddContext(ctx, seg); err != nil {
					t.Fatal(err)
				}
			}
			if got, err = accum.Result(); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("detect accum: %+v (%v), scan %+v", got, err, want)
			}
		}

		// Embedding over the attacked copy reaches cells off the
		// frontier: both passes must fail on the same first bad cell, or
		// both succeed with the same bytes.
		walked, scanned = attacked.Clone(), attacked.Clone()
		ws, werr = EmbedContext(ctx, walked, identCol, fx.columns, p)
		ss, serr = scanEmbed(ctx, scanned, identCol, fx.columns, p)
		if fmt.Sprint(werr) != fmt.Sprint(serr) {
			t.Fatalf("attacked embed: walk error %v, scan error %v", werr, serr)
		}
		if werr == nil {
			if ws != ss {
				t.Fatalf("attacked embed stats: walk %+v, scan %+v", ws, ss)
			}
			tablesIdentical(t, walked, scanned)
		}
	})
}

// zipRoleFixture is FuzzWalkMatchesScan's second table shape: the same
// columns as newFixture a level lower — zip binned at leaf level under
// state-level metrics (9 covers) and role at leaf level under depth-2
// metrics (4 covers), two of which (Clerk, Manager) are boundary nodes.
func zipRoleFixture(t *testing.T, rows int) *fixture {
	t.Helper()
	zipTree := zipLikeTree(t)
	roleTr := roleTree(t)

	var states, zips []string
	for r := 0; r < 3; r++ {
		for s := 0; s < 3; s++ {
			states = append(states, fmt.Sprintf("R%dS%d", r, s))
			for z := 0; z < 3; z++ {
				zips = append(zips, fmt.Sprintf("R%dS%dZ%d", r, s, z))
			}
		}
	}
	zipUlti, err := dht.NewGenSetFromValues(zipTree, zips)
	if err != nil {
		t.Fatal(err)
	}
	zipMax, err := dht.NewGenSetFromValues(zipTree, states)
	if err != nil {
		t.Fatal(err)
	}
	roleUlti, err := dht.NewGenSetFromValues(roleTr, []string{
		"Physician", "Surgeon", "Nurse", "Pharmacist", "Clerk", "Manager"})
	if err != nil {
		t.Fatal(err)
	}
	roleMax, err := dht.NewGenSetFromValues(roleTr, []string{
		"Doctor", "Paramedic", "Clerk", "Manager"})
	if err != nil {
		t.Fatal(err)
	}

	schema := relation.MustSchema(
		relation.Column{Name: "ssn", Kind: relation.Identifying},
		relation.Column{Name: "zip", Kind: relation.QuasiCategorical},
		relation.Column{Name: "role", Kind: relation.QuasiCategorical},
	)
	tbl := relation.NewTable(schema)
	rng := rand.New(rand.NewSource(31))
	roleVals := roleUlti.Values()
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow([]string{
			fmt.Sprintf("enc-%06d", i),
			zips[rng.Intn(len(zips))],
			roleVals[rng.Intn(len(roleVals))],
		}); err != nil {
			t.Fatal(err)
		}
	}
	mark, err := bitstr.FromString("10110010011011010010")
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
			Key:                    crypt.NewWatermarkKeyFromSecret("zip-role-owner", 1),
			Mark:                   mark,
			Duplication:            1,
			SaltPositionWithColumn: true,
		},
	}
}

package watermark

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
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
// every row, derives its identifier (or §5.3 virtual key) from the
// row's current cells, tests Equation (5) and walks the row at once,
// sharded into contiguous row ranges.

// virtualIdent derives the virtual key bytes for one row from the
// current cell values of the watermarkable columns (cols must be
// sorted): the reference for virtualKeys.appendIdent.
func virtualIdent(tbl cellReader, row int, cols []string, colIdx map[string]int, columns map[string]ColumnSpec) []byte {
	var sb strings.Builder
	for _, col := range cols {
		spec := columns[col]
		value := tbl.CellAt(row, colIdx[col])
		part := value
		if id, err := spec.Tree.ResolveValue(value); err == nil {
			if maxNode, ok := spec.MaxGen.CoverOf(id); ok {
				part = spec.Tree.Value(maxNode)
			}
		}
		sb.WriteString(part)
		sb.WriteByte(0x1f)
	}
	return []byte(sb.String())
}

// cellReader is the slice of relation.Table the virtual key needs.
type cellReader interface {
	CellAt(row, col int) string
}

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

// scanIdent returns the row's Equation (5) anchor: the identifying cell,
// or the virtual key when p.UseVirtualIdent is set.
func scanIdent(tbl *relation.Table, row, identIdx int, cols []string, colIdx map[string]int, columns map[string]ColumnSpec, p Params) []byte {
	if p.UseVirtualIdent {
		return virtualIdent(tbl, row, cols, colIdx, columns)
	}
	return []byte(tbl.CellAt(row, identIdx))
}

// scanSetup resolves the identifying column and the watermarked column
// indexes the scans address rows through.
func scanSetup(tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (int, []string, map[string]int, error) {
	identIdx := -1
	if !p.UseVirtualIdent {
		var err error
		if identIdx, err = tbl.Schema().Index(identCol); err != nil {
			return 0, nil, nil, err
		}
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

// scanDetect is the full-table detection scan: per-shard boards merged
// in shard order, then folded.
func scanDetect(ctx context.Context, tbl *relation.Table, identCol string, columns map[string]ColumnSpec, p Params) (DetectResult, error) {
	var res DetectResult
	if err := p.validate(); err != nil {
		return res, err
	}
	identIdx, cols, colIdx, err := scanSetup(tbl, identCol, columns, p)
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
	shardBoards := make([]*bitstr.VoteBoard, len(chunks))
	shardStats := make([]DetectStats, len(chunks))
	err = pool.ForEachChunkCtx(ctx, p.Workers, tbl.NumRows(), func(si, lo, hi int) error {
		shardBoard := bitstr.NewVoteBoard(p.wmdLen())
		shard := &shardStats[si]
		for row := lo; row < hi; row++ {
			ident := scanIdent(tbl, row, identIdx, cols, colIdx, columns, p)
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
				shardBoard.Vote(p.positionOf(prf2, ident, plan.colKey), v.bit, 1)
				shard.VotesCast++
			}
		}
		shardBoards[si] = shardBoard
		return nil
	})
	if err != nil {
		return res, err
	}
	board := bitstr.NewVoteBoard(p.wmdLen())
	for si := range chunks {
		if err := board.Merge(shardBoards[si]); err != nil {
			return res, err
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
	if err := p.validate(); err != nil {
		return stats, err
	}
	if len(columns) == 0 {
		return stats, fmt.Errorf("watermark: no columns to embed into")
	}
	identIdx, cols, colIdx, err := scanSetup(tbl, identCol, columns, p)
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
			ident := scanIdent(tbl, row, identIdx, cols, colIdx, columns, p)
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
// DetectContext (and DetectAccum over random segments) must return the
// oracle's whole DetectResult, on the clean marked table and on copies
// with altered and deleted rows, for random η, duplication, voting and
// boundary policy, identifier anchor and worker count.
func FuzzWalkMatchesScan(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0x1f), uint8(1), uint8(40), uint8(30))
	f.Add(int64(3), uint8(3), uint8(2), uint8(0x0a), uint8(2), uint8(90), uint8(5))
	f.Add(int64(4), uint8(2), uint8(3), uint8(0x15), uint8(3), uint8(255), uint8(200))
	f.Add(int64(5), uint8(0), uint8(0), uint8(0x08), uint8(3), uint8(20), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, eta, dup, flags, workerSel, alterPct, deletePct uint8) {
		var fx *fixture
		if flags&8 != 0 {
			fx = virtualFixture(t, 400)
		} else {
			fx = newFixture(t, 400, 1)
		}
		rng := rand.New(rand.NewSource(seed))
		mark := bitstr.New(4 + rng.Intn(20))
		for i := 0; i < mark.Len(); i++ {
			mark = mark.Set(i, rng.Intn(2) == 1)
		}
		p := Params{
			Key:                    crypt.NewWatermarkKeyFromSecret(fmt.Sprint(seed), uint64(eta%8)+1),
			Mark:                   mark,
			Duplication:            int(dup%4) + 1,
			WeightedVoting:         flags&1 != 0,
			BoundaryPermutation:    flags&2 != 0,
			UseVirtualIdent:        flags&4 != 0,
			SaltPositionWithColumn: flags&16 == 0,
			Workers:                []int{1, 2, 3, 8}[workerSel%4],
		}
		identCol := "ssn"
		if p.UseVirtualIdent {
			identCol = ""
		}
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
			got, err := DetectContext(ctx, suspect, identCol, fx.columns, p)
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
			if p.UseVirtualIdent {
				continue
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

package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/anonymity"
	"repro/internal/binning"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// This file is the one write path of the Figure 2 pipeline. Every write
// entry point — ApplyContext, AppendContext and FingerprintContext in
// memory, ApplyStream, AppendStream and FingerprintStream over segments
// — is the write loop below plus a sink and a verdict. The in-memory
// forms feed their table as a single segment and keep the marked table.

// oneSegment yields a whole table as a single segment, even when it has
// no rows. Unlike Table.Segments it does not re-encode the table.
type oneSegment struct {
	tbl  *relation.Table
	done bool
}

func (s *oneSegment) Schema() *relation.Schema { return s.tbl.Schema() }

func (s *oneSegment) Next() (*relation.Table, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	return s.tbl, nil
}

// output is one marked copy a write run produces: the plan and key it
// is embedded under, and the sink its marked segments go to. Several
// outputs share one run only when their plans share frontiers and
// suppression (RecipientPlan copies of one base plan); recipient names
// the copy in errors.
type output struct {
	plan      *Plan
	key       crypt.WatermarkKey
	sink      func(*relation.Table) error
	recipient string
}

func (o output) wrap(err error) error {
	if o.recipient == "" {
		return err
	}
	return fmt.Errorf("core: fingerprinting for recipient %q: %w", o.recipient, err)
}

// keep is the sink of the in-memory forms: it retains the marked table.
func keep(dst **relation.Table) func(*relation.Table) error {
	return func(t *relation.Table) error { *dst = t; return nil }
}

// pass is what one write run accumulated: the bins before watermarking
// (apply runs only; the quasi cells do not depend on the key, so every
// output shares them), each output's embedding statistics and bins after
// watermarking, and the row counters.
type pass struct {
	columns                    map[string]watermark.ColumnSpec
	before                     map[string]int
	embed                      []watermark.EmbedStats
	after                      []map[string]int
	rows, segments, suppressed int
}

// write is the per-segment write loop. It validates the plan, keys and
// schema once; then, for each segment from src, it replays the plan's
// suppression, transforms once per distinct encryption key with the k
// check off (a segment's bins may be thin — the verdicts judge the
// combined bins), counts the before-bins, selects once per distinct
// (Enc, K1, η), and embeds each output's mark into a clone of the
// transformed segment — in place for the last output sharing that
// transform, so a one-output run clones nothing — counts the after-bins
// and hands the marked segment to the output's sink. appending wraps
// values outside the planned frontiers in ErrPlanDrift and skips the
// before-bins, which only the apply verdict reads.
func (f *Framework) write(ctx context.Context, src Segments, outs []output, appending bool) (*pass, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan := outs[0].plan
	if plan == nil {
		return nil, fmt.Errorf("core: nil plan: %w", ErrBadProvenance)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if appending && len(plan.Bins) == 0 {
		return nil, fmt.Errorf(
			"core: plan carries no published bin record; apply it first (ApplyContext/ProtectContext) and retain the returned plan: %w", ErrBadProvenance)
	}
	ciphers := make(map[string]*crypt.Cipher, 1)
	lastUser := make(map[string]int, 1)
	for i, o := range outs {
		if err := o.key.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
		}
		enc := string(o.key.Enc)
		if ciphers[enc] == nil {
			cipher, err := crypt.NewCipher(o.key.Enc)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
			}
			ciphers[enc] = cipher
		}
		lastUser[enc] = i
	}
	schema := src.Schema()
	if _, err := schema.Index(plan.IdentCol); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadSchema)
	}
	// The quasi columns must match the plan's recorded set and order
	// exactly: the bin keys are assembled in that order.
	if err := checkQuasiCols(schema, plan); err != nil {
		return nil, err
	}
	columns, err := f.SpecsFromProvenance(plan.Provenance)
	if err != nil {
		return nil, err
	}
	ultiGens := make(map[string]dht.GenSet, len(columns))
	for col, spec := range columns {
		ultiGens[col] = spec.UltiGen
	}
	params := make([]watermark.Params, len(outs))
	for i, o := range outs {
		if params[i], err = paramsFromProvenance(o.plan.Provenance, o.key); err != nil {
			return nil, o.wrap(err)
		}
		params[i].Workers = f.cfg.Workers
	}
	quasi := schema.QuasiColumns()

	p := &pass{columns: columns, embed: make([]watermark.EmbedStats, len(outs)), after: make([]map[string]int, len(outs))}
	for i := range outs {
		p.after[i] = make(map[string]int)
	}
	if !appending {
		p.before = make(map[string]int)
	}
	for {
		seg, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		work := seg
		if len(plan.Suppress) > 0 {
			work = seg.Clone()
			n, err := binning.Suppress(work, f.trees, plan.Suppress)
			if err != nil {
				return nil, fmt.Errorf("core: replaying plan suppression: %w: %w", err, ErrBadProvenance)
			}
			p.suppressed += n
		}
		binned := make(map[string]*relation.Table, len(ciphers))
		sels := make(map[string]*watermark.Selection, 1)
		for i, o := range outs {
			enc := string(o.key.Enc)
			tbl := binned[enc]
			if tbl == nil {
				if tbl, err = binning.TransformContext(ctx, work, ultiGens, 0, ciphers[enc], f.cfg.Workers); err != nil {
					if appending && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						return nil, fmt.Errorf("core: delta outside planned frontiers: %w: %w", err, ErrPlanDrift)
					}
					return nil, err
				}
				if p.before != nil && len(binned) == 0 {
					if err := addBins(p.before, tbl, quasi); err != nil {
						return nil, err
					}
				}
				binned[enc] = tbl
			}
			// The Equation (5) selection depends only on the encrypted
			// identifiers, K1 and η; recipient keys from
			// crypt.RecipientWatermarkKey share all three.
			selKey := enc + "\x00" + string(o.key.K1) + "\x00" + strconv.FormatUint(o.key.Eta, 10)
			sel := sels[selKey]
			if sel == nil {
				if sel, err = watermark.SelectForEmbedContext(ctx, tbl, plan.IdentCol, o.key.K1, o.key.Eta, f.cfg.Workers); err != nil {
					return nil, err
				}
				sels[selKey] = sel
			}
			marked := tbl
			if lastUser[enc] != i {
				marked = tbl.Clone()
			}
			stats, err := watermark.EmbedSelectedContext(ctx, marked, sel, columns, params[i])
			if err != nil {
				return nil, o.wrap(err)
			}
			addEmbed(&p.embed[i], stats)
			if err := addBins(p.after[i], marked, quasi); err != nil {
				return nil, err
			}
			if err := o.sink(marked); err != nil {
				return nil, err
			}
		}
		p.rows += work.NumRows()
		p.segments++
		reportProgress(ctx, Progress{Stage: "stream", Done: p.rows})
	}
	return p, nil
}

// addBins accumulates tbl's joint quasi-column bins into dst.
func addBins(dst map[string]int, tbl *relation.Table, quasi []string) error {
	bins, err := anonymity.Bins(tbl, quasi)
	if err != nil {
		return err
	}
	for bin, n := range bins {
		dst[bin] += n
	}
	return nil
}

// addEmbed accumulates per-segment embedding counters.
func addEmbed(dst *watermark.EmbedStats, s watermark.EmbedStats) {
	dst.TuplesSelected += s.TuplesSelected
	dst.BitsEmbedded += s.BitsEmbedded
	dst.CellsChanged += s.CellsChanged
	dst.ZeroBandwidth += s.ZeroBandwidth
}

// applyVerdict closes an apply run for output i: the combined
// before-bins must hold the planned k+ε floor, the mark must have found
// bandwidth, and — unless §5.1 boundary permutation is on — no bin may
// fall below k after watermarking (seamlessness). It returns the
// effective plan, whose bin record later appends verify against.
func applyVerdict(plan *Plan, p *pass, i int) (*Streamed, error) {
	if plan.EffectiveK > 0 && p.rows > 0 {
		for _, n := range p.before {
			if n < plan.EffectiveK {
				return nil, fmt.Errorf("core: output violates k=%d anonymity; the plan's frontiers do not fit this table, re-plan over it: %w", plan.EffectiveK, ErrUnsatisfiable)
			}
		}
	}
	embed, after := p.embed[i], p.after[i]
	bp := plan.BoundaryPermutation
	if embed.BitsEmbedded == 0 {
		switch {
		case embed.TuplesSelected > 0 && !bp:
			return nil, fmt.Errorf(
				"core: no watermark bandwidth under the planned frontiers, and the §5.1 boundary-permutation fallback cannot replay a consumed stream; re-plan with Config.BoundaryPermutation or use the in-memory form: %w", ErrUnsatisfiable)
		case embed.TuplesSelected > 0:
			return nil, fmt.Errorf(
				"core: no watermark bandwidth: every frontier sits at the usage metrics with no permutable siblings; relax the metrics or lower K: %w", ErrUnsatisfiable)
		default:
			// No tuple was selected at all: the fallback would change
			// nothing but the recorded decision, so record it.
			bp = true
		}
	}
	binStats := anonymity.Compare(p.before, after, plan.K)
	if binStats.BelowK > 0 && !bp {
		return nil, fmt.Errorf(
			"core: watermarking pushed %d bins below k=%d; increase Epsilon or enable AutoEpsilon: %w",
			binStats.BelowK, plan.K, ErrUnsatisfiable)
	}
	eff := *plan
	eff.BoundaryPermutation = bp
	eff.Bins = after
	eff.Rows = p.rows
	return &Streamed{Plan: eff, Embed: embed, BinStats: binStats, Rows: p.rows, Segments: p.segments, Suppressed: p.suppressed}, nil
}

// appendVerdict closes an append run: existing bins only grow, and a bin
// the plan never published must arrive with at least K rows of its own
// — unless the plan uses §5.1 boundary permutation, whose permuted
// boundary tuples may open thin sibling bins that a full re-protect
// would publish too. Thin new bins are ErrPlanDrift. It returns the
// advanced plan, the next append's baseline.
func appendVerdict(plan *Plan, p *pass) (*Streamed, error) {
	newBins := 0
	var thin []string
	for bin, n := range p.after[0] {
		if plan.Bins[bin] > 0 {
			continue
		}
		newBins++
		if n < plan.K && !plan.BoundaryPermutation {
			thin = append(thin, fmt.Sprintf("%s (%d)", strings.ReplaceAll(bin, "\x1f", "|"), n))
		}
	}
	if len(thin) > 0 {
		sort.Strings(thin)
		return nil, fmt.Errorf(
			"core: appending would publish %d new bin(s) below k=%d — %s; re-plan over the combined table: %w",
			len(thin), plan.K, strings.Join(thin, ", "), ErrPlanDrift)
	}
	eff := *plan
	eff.Bins = make(map[string]int, len(plan.Bins)+newBins)
	for bin, n := range plan.Bins {
		eff.Bins[bin] = n
	}
	for bin, n := range p.after[0] {
		eff.Bins[bin] += n
	}
	eff.Rows = plan.Rows + p.rows
	return &Streamed{Plan: eff, Embed: p.embed[0], Rows: p.rows, Segments: p.segments, NewBins: newBins, Suppressed: p.suppressed}, nil
}

// applyTable is the in-memory apply: the write loop over tbl as one
// segment, each output closed by the apply verdict, the marked tables
// kept. It is the one place the §5.1 fallback lives. When an output's
// mark finds no bandwidth — every selected cell's ultimate node is its
// own maximal node — that output is re-run with boundary permutation
// on. Only an in-memory caller can do this, because a stream cannot
// replay its input; and no plan-time rule can decide it instead,
// because bandwidth depends on the encrypted identifiers, K1 and η,
// which the planner never computes.
func (f *Framework) applyTable(ctx context.Context, tbl *relation.Table, outs []output) ([]*Protected, error) {
	kept := make([]*relation.Table, len(outs))
	for i := range outs {
		outs[i].sink = keep(&kept[i])
	}
	p, err := f.write(ctx, &oneSegment{tbl: tbl}, outs, false)
	if err != nil {
		return nil, err
	}
	var retry []output
	var retried []int
	for i, o := range outs {
		if e := p.embed[i]; e.BitsEmbedded == 0 && e.TuplesSelected > 0 && !o.plan.BoundaryPermutation {
			bp := *o.plan
			bp.BoundaryPermutation = true
			o.plan = &bp
			retry = append(retry, o)
			retried = append(retried, i)
		}
	}
	if len(retry) > 0 {
		rp, err := f.write(ctx, &oneSegment{tbl: tbl}, retry, false)
		if err != nil {
			return nil, err
		}
		for j, i := range retried {
			outs[i].plan = retry[j].plan
			p.embed[i], p.after[i] = rp.embed[j], rp.after[j]
		}
	}

	plan := outs[0].plan
	minGens, err := f.minGensFromPlan(plan)
	if err != nil {
		return nil, err
	}
	ultiGens := make(map[string]dht.GenSet, len(p.columns))
	maxGens := make(map[string]dht.GenSet, len(p.columns))
	for col, spec := range p.columns {
		ultiGens[col], maxGens[col] = spec.UltiGen, spec.MaxGen
	}
	prots := make([]*Protected, len(outs))
	for i, o := range outs {
		res, err := applyVerdict(o.plan, p, i)
		if err != nil {
			return nil, o.wrap(err)
		}
		prots[i] = &Protected{
			Table:      kept[i],
			Provenance: res.Plan.Provenance,
			Plan:       res.Plan,
			Binning: &binning.Result{
				MinGens:    minGens,
				MaxGens:    maxGens,
				UltiGens:   ultiGens,
				ColumnLoss: plan.ColumnLoss,
				AvgLoss:    plan.AvgLoss,
				EffectiveK: plan.EffectiveK,
				Suppressed: res.Suppressed,
			},
			Embed:    res.Embed,
			BinStats: res.BinStats,
		}
	}
	return prots, nil
}

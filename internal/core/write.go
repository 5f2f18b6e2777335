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

// pass is what one write run accumulated: each output's effective plan
// (its input plan, with the §5.1 decision an apply run took), the bins
// before watermarking (the quasi cells do not depend on the key, so
// every output shares them), each output's embedding statistics and
// bins after watermarking, the row counters, and how many transforms
// and Equation (5) selections the outputs shared.
type pass struct {
	plans                      []*Plan
	before                     map[string]int
	embed                      []watermark.EmbedStats
	after                      []map[string]int
	rows, segments, suppressed int
	transforms, selections     int
}

// write is the per-segment write loop. It validates the plan, keys and
// schema once; then, for each segment from src, it replays the plan's
// suppression, transforms once per distinct encryption key with the k
// check off (a segment's bins may be thin — the verdicts judge the
// combined bins), counts the before-bins, selects once per distinct
// (Enc, K1, η), and embeds each output's mark into a clone of the
// transformed segment — in place for the last output sharing that
// transform — and hands the marked segment to the output's sink. The
// loop owns every segment src yields (Segments), so suppression and
// the transform of the last distinct key rewrite the segment itself,
// and a one-output run clones nothing. Each row's bin is counted once,
// before the embed: an output's after-bins are the before-bins plus
// its difference over the rows its mark selected, the old bin minus and
// the new bin plus. The source is read one segment ahead and the sinks
// run one marked table behind, on helper goroutines joined before write
// returns (pipe.go); a sink error wins over any later error of the
// loop. An apply run whose frontiers leave the hierarchical channel
// empty (noHierarchy) embeds every output with §5.1 boundary
// permutation on and records it in the output's effective plan.
// appending keeps the plan's decision and wraps values outside the
// planned frontiers in ErrPlanDrift.
func (f *Framework) write(ctx context.Context, src Segments, outs []output, appending bool) (_ *pass, err error) {
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
	boundary := !appending && noHierarchy(columns)
	plans := make([]*Plan, len(outs))
	params := make([]watermark.Params, len(outs))
	for i, o := range outs {
		plans[i] = o.plan
		if boundary && !o.plan.BoundaryPermutation {
			bp := *o.plan
			bp.BoundaryPermutation = true
			plans[i] = &bp
		}
		if params[i], err = paramsFromProvenance(plans[i].Provenance, o.key); err != nil {
			return nil, o.wrap(err)
		}
		params[i].Workers = f.cfg.Workers
	}
	quasi := schema.QuasiColumns()

	ahead := readAhead(src)
	defer ahead.close()
	sinks := writeBehind()
	defer func() {
		if serr := sinks.wait(); serr != nil {
			err = serr
		}
	}()

	// The bin counters live for the whole run, so a bin's key is
	// allocated once, however many segments it recurs in.
	p := &pass{plans: plans, embed: make([]watermark.EmbedStats, len(outs))}
	var before anonymity.Counter
	delta := make([]anonymity.Counter, len(outs))
	for {
		seg, err := ahead.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n, err := binning.Suppress(seg, f.trees, plan.Suppress)
		if err != nil {
			return nil, fmt.Errorf("core: replaying plan suppression: %w: %w", err, ErrBadProvenance)
		}
		p.suppressed += n
		binned := make(map[string]*relation.Table, len(ciphers))
		sels := make(map[string]*watermark.Selection, 1)
		for i, o := range outs {
			enc := string(o.key.Enc)
			tbl := binned[enc]
			if tbl == nil {
				// The last distinct key transforms the segment itself;
				// every earlier one, a copy of the plaintext.
				tbl = seg
				if len(binned) < len(ciphers)-1 {
					tbl = seg.Clone()
				}
				if err := binning.TransformInPlace(ctx, tbl, ultiGens, 0, ciphers[enc], f.cfg.Workers); err != nil {
					if appending && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						return nil, fmt.Errorf("core: delta outside planned frontiers: %w: %w", err, ErrPlanDrift)
					}
					return nil, err
				}
				if len(binned) == 0 {
					if err := before.Add(tbl, quasi); err != nil {
						return nil, err
					}
				}
				binned[enc] = tbl
				p.transforms++
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
				p.selections++
			}
			marked := tbl
			if lastUser[enc] != i {
				marked = tbl.Clone()
			}
			if err := delta[i].AddRows(marked, quasi, sel.Rows(), -1); err != nil {
				return nil, err
			}
			stats, err := watermark.EmbedSelectedContext(ctx, marked, sel, columns, params[i])
			if err != nil {
				return nil, o.wrap(err)
			}
			addEmbed(&p.embed[i], stats)
			if err := delta[i].AddRows(marked, quasi, sel.Rows(), 1); err != nil {
				return nil, err
			}
			if err := sinks.put(o.sink, marked); err != nil {
				return nil, err
			}
		}
		p.rows += seg.NumRows()
		p.segments++
		reportProgress(ctx, Progress{Stage: "stream", Done: p.rows})
	}
	p.before = before.Bins()
	p.after = make([]map[string]int, len(outs))
	for i := range delta {
		p.after[i] = before.Plus(&delta[i])
	}
	return p, nil
}

// noHierarchy reports whether the hierarchical channel is empty for
// every key and η: in every column each maximal node covers exactly one
// ultimate node, so each Permutate walk descends only single-child
// levels and carries no bit. Only §5.1 boundary permutation can then
// embed the mark, and the frontiers alone decide it, before the first
// row. The ultimate frontier lies at or below the maximal one (embedding
// rejects any other spec), so every maximal node covers at least one
// ultimate node, and exactly one when the two frontiers are equally
// long.
func noHierarchy(columns map[string]watermark.ColumnSpec) bool {
	for _, spec := range columns {
		if spec.UltiGen.Len() != spec.MaxGen.Len() {
			return false
		}
	}
	return true
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
// bandwidth, and — unless §5.1 boundary permutation is on — no
// published bin, one the marked output holds, may have fewer than k
// rows (seamlessness). A bin the marking emptied is not published, so
// it does not count. BinStats is the Figure 14 comparison of the bins
// before and after marking. It returns the effective plan, whose bin
// record later appends verify against.
func applyVerdict(p *pass, i int) (*Streamed, error) {
	plan := p.plans[i]
	if plan.EffectiveK > 0 && p.rows > 0 {
		for _, n := range p.before {
			if n < plan.EffectiveK {
				return nil, fmt.Errorf("core: output violates k=%d anonymity; the plan's frontiers do not fit this table, re-plan over it: %w", plan.EffectiveK, ErrUnsatisfiable)
			}
		}
	}
	embed, after := p.embed[i], p.after[i]
	if embed.BitsEmbedded == 0 && embed.TuplesSelected > 0 {
		if plan.BoundaryPermutation {
			return nil, fmt.Errorf(
				"core: no watermark bandwidth: every frontier sits at the usage metrics with no permutable siblings; relax the metrics or lower K: %w", ErrUnsatisfiable)
		}
		return nil, fmt.Errorf(
			"core: no watermark bandwidth: every selected tuple's cells sit on maximal nodes; lower η to select more tuples, or re-plan with Config.BoundaryPermutation: %w", ErrUnsatisfiable)
	}
	if !plan.BoundaryPermutation {
		thin := 0
		for _, n := range after {
			if n < plan.K {
				thin++
			}
		}
		if thin > 0 {
			return nil, fmt.Errorf(
				"core: watermarking pushed %d published bins below k=%d; increase Epsilon or enable AutoEpsilon: %w",
				thin, plan.K, ErrUnsatisfiable)
		}
	}
	eff := *plan
	eff.Bins = after
	eff.Rows = p.rows
	return &Streamed{Plan: eff, Embed: embed, BinStats: anonymity.Compare(p.before, after, plan.K),
		Rows: p.rows, Segments: p.segments, Suppressed: p.suppressed}, nil
}

// appendVerdict closes an append run: existing bins only grow, and a bin
// the plan never published must arrive with at least K rows of its own
// — unless the plan uses §5.1 boundary permutation, whose permuted
// boundary tuples may open thin sibling bins that a full re-protect
// would publish too. Thin new bins are ErrPlanDrift. It returns the
// advanced plan, the next append's baseline.
func appendVerdict(p *pass) (*Streamed, error) {
	plan := p.plans[0]
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

// verdict closes a one-output run with the apply or the append verdict.
func verdict(p *pass, appending bool) (*Streamed, error) {
	if appending {
		return appendVerdict(p)
	}
	return applyVerdict(p, 0)
}

// writeTable is the in-memory write: the write loop over a copy of tbl
// as one segment, closed by its verdict, the marked table kept. The
// loop rewrites the segments it is handed, so the copy is what keeps
// the caller's table as it was.
func (f *Framework) writeTable(ctx context.Context, tbl *relation.Table, plan *Plan, key crypt.WatermarkKey, appending bool) (*Protected, error) {
	var marked *relation.Table
	p, err := f.write(ctx, &relation.OneSegment{Table: tbl.Clone()}, []output{{plan: plan, key: key, sink: keep(&marked)}}, appending)
	if err != nil {
		return nil, err
	}
	res, err := verdict(p, appending)
	if err != nil {
		return nil, err
	}
	return &Protected{Table: marked, Provenance: res.Plan.Provenance, Streamed: *res}, nil
}

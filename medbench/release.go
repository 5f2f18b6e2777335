package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/anonymity"
	"repro/internal/binning"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// releaseSetups is how many times release-1m generates its input; the
// reported set-up time is their median.
const releaseSetups = 3

// pinned holds the SHA-256 of the effective plan JSON and of the
// protected CSV for data seed 1, by table size. A change to either is a
// change to the pipeline's output bytes.
var pinned = map[int]struct{ plan, csv string }{
	20000: {
		plan: "e850f55caccf5f0e8fc0348a63cfc98e2dbfb971461f13b27b2c0fcb35167ade",
		csv:  "f66cc8db8ba7996bb853e96d18dd5c7ea413a3add6718bc1eab4e8075d05ceb7",
	},
	1000000: {
		plan: "1420e031cbbf1682934cc5e2f82dacfcd4685165584cce87448f9be954a72a88",
		csv:  "f7beab945ce7e0eb206fe6c2ac351dc863d0035beb2e926c6a5f6827b72cd72e",
	},
}

// runRelease is the data owner's bulk release: a seeded CSV on disk
// goes through PlanStream, then ApplyStream into a protected CSV.
func runRelease(cfg *config, res *result) error {
	ctx := context.Background()
	input := filepath.Join(cfg.workdir, "input.csv")
	output := filepath.Join(cfg.workdir, "protected.csv")

	var schema *relation.Schema
	var setups []float64
	for i := 0; i < releaseSetups; i++ {
		start := time.Now()
		tbl, err := generateTable(cfg.rows, cfg.dataSeed)
		if err != nil {
			return err
		}
		if err := writeCSVFile(input, tbl); err != nil {
			return err
		}
		schema = tbl.Schema()
		setups = append(setups, time.Since(start).Seconds())
	}
	res.e2e["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)

	fw, err := newFramework()
	if err != nil {
		return err
	}
	key := crypt.NewWatermarkKeyFromSecret(ownerSecret, ownerEta)

	if err := startRSSPeak(); err != nil {
		return err
	}
	end := deadline(cfg)
	var passes []*released
	for len(passes) == 0 || time.Now().Before(end) {
		res.attempted += 2
		rel, err := releaseOnce(ctx, fw, key, schema, input, output)
		if err != nil {
			return err
		}
		passes = append(passes, rel)
	}
	if res.e2e["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return err
	}
	res.samples["peak_rss_mib"] = 1

	var opMs, planS, applyS []float64
	var rows int
	var allocs, planAllocs, applyAllocs uint64
	var busy time.Duration
	for _, p := range passes {
		opMs = append(opMs, millis(p.planDur+p.applyDur))
		planS = append(planS, p.planDur.Seconds())
		applyS = append(applyS, p.applyDur.Seconds())
		rows += p.planned.Rows + p.streamed.Rows
		allocs += p.planAllocs + p.applyAllocs
		planAllocs += p.planAllocs
		applyAllocs += p.applyAllocs
		busy += p.planDur + p.applyDur
	}
	n := len(passes)
	res.e2e["op_p50_ms"] = median(opMs)
	res.e2e["rows_per_s"] = float64(rows) / busy.Seconds()
	res.e2e["allocs_per_row"] = perRow(allocs, rows)
	for _, m := range []string{"op_p50_ms", "rows_per_s", "allocs_per_row"} {
		res.samples[m] = n
	}
	res.op("plan_s", "s", median(planS), n)
	res.op("apply_s", "s", median(applyS), n)
	res.op("plan_allocs_per_row", "count", perRow(planAllocs, n*passes[0].planned.Rows), n)
	res.op("apply_allocs_per_row", "count", perRow(applyAllocs, n*passes[0].streamed.Rows), n)

	last := passes[n-1]
	first, err := planJSON(&passes[0].streamed.Plan)
	if err != nil {
		return err
	}
	for _, p := range passes[1:] {
		got, err := planJSON(&p.streamed.Plan)
		if err != nil {
			return err
		}
		res.check(got == first, "release pass plans differ")
	}
	outHash, err := verifyRelease(ctx, res, cfg, fw, key, schema, output, &last.streamed.Plan)
	if err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return traceRelease(ctx, res, cfg, fw, key, schema, input, last, outHash)
}

// released is one timed release pass.
type released struct {
	planned                 *core.PlannedStream
	streamed                *core.Streamed
	planDur, applyDur       time.Duration
	planAllocs, applyAllocs uint64
}

func releaseOnce(ctx context.Context, fw *core.Framework, key crypt.WatermarkKey, schema *relation.Schema, input, output string) (*released, error) {
	src, err := openSegments(input, schema)
	if err != nil {
		return nil, err
	}
	a0 := heapAllocs()
	start := time.Now()
	planned, err := fw.PlanStream(ctx, src, key)
	planDur := time.Since(start)
	planAllocs := heapAllocs() - a0
	src.Close()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}

	if src, err = openSegments(input, schema); err != nil {
		return nil, err
	}
	defer src.Close()
	sink, err := createSink(output)
	if err != nil {
		return nil, err
	}
	a0 = heapAllocs()
	start = time.Now()
	streamed, err := fw.ApplyStream(ctx, src, planned.Plan, key, sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	applyDur := time.Since(start)
	applyAllocs := heapAllocs() - a0
	if err != nil {
		return nil, fmt.Errorf("apply: %w", err)
	}
	return &released{planned: planned, streamed: streamed, planDur: planDur, applyDur: applyDur,
		planAllocs: planAllocs, applyAllocs: applyAllocs}, nil
}

// binCounter recounts the published bins of the segments it passes on.
type binCounter struct {
	core.Segments
	quasi []string
	bins  map[string]int
}

func (b *binCounter) Next() (*relation.Table, error) {
	seg, err := b.Segments.Next()
	if err != nil {
		return nil, err
	}
	bins, err := anonymity.Bins(seg, b.quasi)
	if err != nil {
		return nil, err
	}
	for bin, n := range bins {
		b.bins[bin] += n
	}
	return seg, nil
}

// verifyRelease checks a protected CSV outside the timed region: its
// recounted bins match the plan's record and none is below the effective
// k, a clean detect under the owner key matches at 0% loss, and for
// data seed 1 the plan and CSV bytes equal the pinned hashes. It returns
// the CSV's SHA-256.
func verifyRelease(ctx context.Context, res *result, cfg *config, fw *core.Framework, key crypt.WatermarkKey, schema *relation.Schema, output string, plan *core.Plan) (string, error) {
	src, err := openSegments(output, schema)
	if err != nil {
		return "", err
	}
	defer src.Close()
	bc := &binCounter{Segments: src, quasi: schema.QuasiColumns(), bins: make(map[string]int)}
	det, err := fw.DetectStream(ctx, bc, plan.Provenance, key)
	if err != nil {
		return "", fmt.Errorf("verify detect: %w", err)
	}
	res.check(det.Match && det.MarkLoss == 0, "clean detect of the release: match=%v loss=%v", det.Match, det.MarkLoss)
	low := 0
	for _, n := range bc.bins {
		if n < plan.EffectiveK {
			low++
		}
	}
	res.check(low == 0, "%d published bins below effective k=%d", low, plan.EffectiveK)
	res.check(len(bc.bins) == len(plan.Bins), "recounted %d bins, plan records %d", len(bc.bins), len(plan.Bins))
	for bin, n := range bc.bins {
		if plan.Bins[bin] != n {
			res.check(false, "bin %q recounted %d, plan records %d", bin, n, plan.Bins[bin])
			break
		}
	}
	outHash, err := hashFile(output)
	if err != nil {
		return "", err
	}
	pj, err := planJSON(plan)
	if err != nil {
		return "", err
	}
	if want, ok := pinned[cfg.rows]; ok && cfg.dataSeed == 1 {
		res.check(sha256Hex(pj) == want.plan, "plan SHA-256 %s, pinned %s", sha256Hex(pj), want.plan)
		res.check(outHash == want.csv, "protected CSV SHA-256 %s, pinned %s", outHash, want.csv)
	}
	res.info["plan_sha256"] = sha256Hex(pj)
	res.info["csv_sha256"] = outHash
	return outHash, nil
}

// traceRelease replays plan and apply layer by layer and reports the
// per-layer metrics of release-1m.
func traceRelease(ctx context.Context, res *result, cfg *config, fw *core.Framework, key crypt.WatermarkKey, schema *relation.Schema, input string, real *released, realHash string) error {
	tr := newTracer(true)
	rows := real.planned.Rows

	planID := tr.begin("core.PlanStream")
	plan, err := replayPlan(ctx, tr, fw, key, schema, input)
	planTotal := tr.end(planID)
	if err != nil {
		return fmt.Errorf("plan replay: %w", err)
	}
	got, err := planJSON(plan)
	if err != nil {
		return err
	}
	want, err := planJSON(real.planned.Plan)
	if err != nil {
		return err
	}
	identical := 0
	if res.check(got == want, "replayed plan differs from PlanStream's") {
		identical++
	}

	replayOut := filepath.Join(cfg.workdir, "replay.csv")
	applyID := tr.begin("core.ApplyStream")
	eff, err := replayApply(ctx, tr, res, fw, key, schema, input, replayOut, real.planned.Plan)
	applyTotal := tr.end(applyID)
	if err != nil {
		return fmt.Errorf("apply replay: %w", err)
	}
	gotHash, err := hashFile(replayOut)
	if err != nil {
		return err
	}
	gotEff, err := planJSON(eff)
	if err != nil {
		return err
	}
	wantEff, err := planJSON(&real.streamed.Plan)
	if err != nil {
		return err
	}
	if res.check(gotHash == realHash && gotEff == wantEff, "replayed apply output differs from ApplyStream's") {
		identical++
	}

	planLayers, applyLayers := tr.childDur(planID), tr.childDur(applyID)
	res.layers["core.plan_residual_s"] = (real.planDur - planLayers).Seconds()
	res.layers["core.apply_residual_s"] = (real.applyDur - applyLayers).Seconds()
	res.layers["trace.plan_coverage"] = planLayers.Seconds() / real.planDur.Seconds()
	res.layers["trace.apply_coverage"] = applyLayers.Seconds() / real.applyDur.Seconds()
	realTotal := real.planDur + real.applyDur
	res.layers["trace.overhead_pct"] = 100 * (planTotal + applyTotal - realTotal).Seconds() / realTotal.Seconds()
	res.layers["trace.replays_identical"] = float64(identical)
	res.attempted += 2
	setLayerTimes(res, tr, tr, 1, 2*rows)
	return saveSpans(cfg, tr)
}

// setLayerTimes copies the layer times of tr, averaged over its rounds
// of replays, and the ingest allocation count of counted (one round)
// into the per-layer metrics; ingested is the number of rows one round
// of relation.ingest spans read.
func setLayerTimes(res *result, tr, counted *tracer, rounds, ingested int) {
	for _, name := range []string{
		"relation.ingest", "relation.egress", "binning.sketch_add", "binning.search", "binning.epsilon_bins",
		"binning.research", "binning.suppress", "binning.transform", "ownership.stat", "anonymity.bins",
		"watermark.embed", "watermark.detect_add", "watermark.detect_result", "watermark.suspect_prepare",
		"watermark.select", "watermark.accumulate",
	} {
		res.layers[name+"_s"] = tr.total(name).dur.Seconds() / float64(rounds)
	}
	res.layers["relation.ingest_allocs_per_row"] = perRow(counted.total("relation.ingest").allocs, ingested)
	res.layers["binning.searches"] = float64(counted.total("binning.search").calls + counted.total("binning.research").calls)
	res.layers["trace.spans"] = float64(len(tr.spans))
}

// saveSpans writes the run's spans to traces/ beside the run directory.
func saveSpans(cfg *config, tr *tracer) error {
	name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
	return tr.write(filepath.Join(filepath.Dir(cfg.workdir), "traces", name))
}

// replayPlan is PlanStream's call sequence, each call a span.
func replayPlan(ctx context.Context, tr *tracer, fw *core.Framework, key crypt.WatermarkKey, schema *relation.Schema, input string) (*core.Plan, error) {
	fc := fw.Config()
	if err := key.Validate(); err != nil {
		return nil, err
	}
	idents := schema.IdentColumns()
	if len(idents) != 1 {
		return nil, fmt.Errorf("schema has %d identifying columns", len(idents))
	}
	identCol := idents[0]
	identIdx, err := schema.Index(identCol)
	if err != nil {
		return nil, err
	}
	src, err := openSegments(input, schema)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	sk, err := binning.NewSketch(schema, fw.Trees())
	if err != nil {
		return nil, err
	}
	var accum ownership.StatAccum
	for {
		var seg *relation.Table
		err := tr.call("relation.ingest", func() (err error) { seg, err = src.Next(); return err })
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := tr.call("binning.sketch_add", func() error { return sk.Add(seg) }); err != nil {
			return nil, err
		}
		tr.call("ownership.stat", func() error {
			dict := seg.DictValues(identIdx)
			for _, code := range seg.Codes(identIdx) {
				accum.Add(dict[code])
			}
			return nil
		})
	}
	v, err := accum.Statistic()
	if err != nil {
		return nil, err
	}
	mark, err := ownership.MarkFromStatistic(v, fc.Quantum, fc.MarkBits)
	if err != nil {
		return nil, err
	}

	quasiCols := schema.QuasiColumns()
	binCfg := binning.Config{
		K: fc.K, Epsilon: fc.Epsilon, Trees: fw.Trees(), MaxGens: fc.MaxGens, Metrics: fc.Metrics,
		Strategy: fc.Strategy, EnumLimit: fc.EnumLimit, Aggressive: fc.Aggressive, Workers: fc.Workers,
	}
	var search *binning.SearchResult
	if err := tr.call("binning.search", func() (err error) { search, err = binning.SearchSketch(ctx, sk, binCfg); return err }); err != nil {
		return nil, err
	}
	if fc.AutoEpsilon {
		eps := 0
		err := tr.call("binning.epsilon_bins", func() error {
			bins, err := search.GeneralizedBins(quasiCols, search.UltiGens)
			eps = binning.EpsilonForMark(bins, fc.MarkBits*fc.Duplication)
			return err
		})
		if err != nil {
			return nil, err
		}
		if eps > binCfg.Epsilon {
			binCfg.Epsilon = eps
			if err := tr.call("binning.research", func() (err error) { search, err = binning.SearchSketch(ctx, sk, binCfg); return err }); err != nil {
				return nil, err
			}
		}
	}

	plan := &core.Plan{
		Provenance: core.Provenance{
			IdentCol:               identCol,
			K:                      fc.K,
			Epsilon:                binCfg.Epsilon,
			Mark:                   mark.String(),
			V:                      v,
			Quantum:                fc.Quantum,
			Duplication:            fc.Duplication,
			WeightedVoting:         fc.WeightedVoting,
			SaltPositionWithColumn: fc.SaltPositionWithColumn,
			BoundaryPermutation:    fc.BoundaryPermutation,
			Columns:                make(map[string]core.ColumnProvenance, len(search.UltiGens)),
		},
		FormatVersion: core.PlanVersion,
		EffectiveK:    search.EffectiveK,
		QuasiCols:     quasiCols,
		MinGens:       genSetValues(search.MinGens),
		Suppress:      search.SuppressValues,
		ColumnLoss:    search.ColumnLoss,
		AvgLoss:       search.AvgLoss,
	}
	for col, ulti := range search.UltiGens {
		plan.Columns[col] = core.ColumnProvenance{Ulti: ulti.Values(), Max: search.MaxGens[col].Values()}
	}
	return plan, nil
}

func genSetValues(gens map[string]dht.GenSet) map[string][]string {
	if len(gens) == 0 {
		return nil
	}
	out := make(map[string][]string, len(gens))
	for col, g := range gens {
		out[col] = g.Values()
	}
	return out
}

// replayApply is ApplyStream's call sequence, each call a span. It
// returns the effective plan ApplyStream would return.
func replayApply(ctx context.Context, tr *tracer, res *result, fw *core.Framework, key crypt.WatermarkKey, schema *relation.Schema, input, output string, plan *core.Plan) (*core.Plan, error) {
	fc := fw.Config()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := key.Validate(); err != nil {
		return nil, err
	}
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		return nil, err
	}
	columns, err := fw.SpecsFromProvenance(plan.Provenance)
	if err != nil {
		return nil, err
	}
	ultiGens := make(map[string]dht.GenSet, len(columns))
	for col, spec := range columns {
		ultiGens[col] = spec.UltiGen
	}
	params, err := paramsOf(plan.Provenance, key, fc.Workers)
	if err != nil {
		return nil, err
	}
	quasi := schema.QuasiColumns()

	src, err := openSegments(input, schema)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	sink, err := createSink(output)
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	sw := relation.NewSegmentWriter(sink, schema)
	before := make(map[string]int)
	after := make(map[string]int)
	addBins := func(dst map[string]int, tbl *relation.Table) error {
		var bins map[string]int
		err := tr.call("anonymity.bins", func() (err error) { bins, err = anonymity.Bins(tbl, quasi); return err })
		for bin, n := range bins {
			dst[bin] += n
		}
		return err
	}
	var embed watermark.EmbedStats
	rows, suppressed := 0, 0
	for {
		var seg *relation.Table
		err := tr.call("relation.ingest", func() (err error) { seg, err = src.Next(); return err })
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		work := seg
		if len(plan.Suppress) > 0 {
			err := tr.call("binning.suppress", func() error {
				work = seg.Clone()
				n, err := binning.Suppress(work, fw.Trees(), plan.Suppress)
				suppressed += n
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		var binned *relation.Table
		if err := tr.call("binning.transform", func() (err error) {
			binned, err = binning.TransformContext(ctx, work, ultiGens, 0, cipher, fc.Workers)
			return err
		}); err != nil {
			return nil, err
		}
		if err := addBins(before, binned); err != nil {
			return nil, err
		}
		var st watermark.EmbedStats
		if err := tr.call("watermark.embed", func() (err error) {
			st, err = watermark.EmbedContext(ctx, binned, plan.IdentCol, columns, params)
			return err
		}); err != nil {
			return nil, err
		}
		embed.TuplesSelected += st.TuplesSelected
		embed.BitsEmbedded += st.BitsEmbedded
		embed.CellsChanged += st.CellsChanged
		embed.ZeroBandwidth += st.ZeroBandwidth
		if err := addBins(after, binned); err != nil {
			return nil, err
		}
		if err := tr.call("relation.egress", func() error { return sw.WriteSegment(binned) }); err != nil {
			return nil, err
		}
		rows += binned.NumRows()
	}
	if err := tr.call("relation.egress", sw.Flush); err != nil {
		return nil, err
	}

	// End-of-stream verdicts, as ApplyStream issues them.
	for _, n := range before {
		if plan.EffectiveK > 0 && rows > 0 && n < plan.EffectiveK {
			return nil, fmt.Errorf("replayed output violates k=%d", plan.EffectiveK)
		}
	}
	if embed.BitsEmbedded == 0 {
		if embed.TuplesSelected > 0 {
			return nil, fmt.Errorf("replayed apply found no watermark bandwidth")
		}
		params.BoundaryPermutation = true
	}
	if stats := anonymity.Compare(before, after, plan.K); stats.BelowK > 0 && !params.BoundaryPermutation {
		return nil, fmt.Errorf("replayed watermark pushed %d bins below k", stats.BelowK)
	}
	res.layers["binning.suppressed_rows"] = float64(suppressed)
	res.layers["watermark.tuples_selected"] = float64(embed.TuplesSelected)
	res.layers["watermark.bits_embedded"] = float64(embed.BitsEmbedded)
	res.layers["relation.egress_allocs_per_row"] = perRow(tr.total("relation.egress").allocs, rows)
	res.layers["binning.transform_allocs_per_row"] = perRow(tr.total("binning.transform").allocs, rows)
	res.layers["anonymity.bins_allocs_per_row"] = perRow(tr.total("anonymity.bins").allocs, rows)
	res.layers["watermark.embed_allocs_per_row"] = perRow(tr.total("watermark.embed").allocs, rows)

	eff := *plan
	eff.BoundaryPermutation = params.BoundaryPermutation
	eff.Bins = after
	eff.Rows = rows
	return &eff, nil
}

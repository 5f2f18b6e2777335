package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/pool"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// Leak forensics settings: the fleet of recipients a copy may have
// leaked from, and the attack the leaker applied before publishing.
const (
	fleetSize   = 50
	leakerIndex = 0
	alterFrac   = 0.1
	deleteFrac  = 0.1
	// leakMinPasses keeps the reported medians off a single pass when a
	// pass takes most of the run's seconds.
	leakMinPasses   = 3
	leakTraceRounds = 3
)

func recipientID(i int) string { return fmt.Sprintf("hospital-%02d", i) }

// leakSetup is the forensic input: the attacked suspect CSV, the
// owner's record of the leaked release, and the candidate fleet.
type leakSetup struct {
	schema     *relation.Schema
	suspect    string
	prov       core.Provenance
	key        crypt.WatermarkKey
	candidates []core.Candidate
}

// runLeak is forensics on a leaked copy: DetectStream with the owner's
// record of the release, then TracebackStream against the whole fleet,
// both over the attacked suspect CSV.
func runLeak(cfg *config, res *result) error {
	ctx := context.Background()
	fw, err := newFramework()
	if err != nil {
		return err
	}
	start := time.Now()
	ls, err := setupLeak(ctx, cfg, fw)
	if err != nil {
		return fmt.Errorf("leak set-up: %w", err)
	}
	res.e2e["setup_s"] = time.Since(start).Seconds()
	res.samples["setup_s"] = 1

	if err := startRSSPeak(); err != nil {
		return err
	}
	end := deadline(cfg)
	var passes []*forensics
	for len(passes) < leakMinPasses || time.Now().Before(end) {
		res.attempted += 2
		f, err := forensicsOnce(ctx, fw, ls)
		if err != nil {
			return err
		}
		passes = append(passes, f)
	}
	if res.e2e["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return err
	}
	res.samples["peak_rss_mib"] = 1

	var opMs, detectS, tracebackS []float64
	var rows int
	var allocs uint64
	var busy time.Duration
	for _, p := range passes {
		opMs = append(opMs, millis(p.detectDur+p.tracebackDur))
		detectS = append(detectS, p.detectDur.Seconds())
		tracebackS = append(tracebackS, p.tracebackDur.Seconds())
		rows += p.detect.Rows + p.traceback.Rows
		allocs += p.allocs
		busy += p.detectDur + p.tracebackDur
		res.check(p.detect.Match, "detect of the leaked copy did not match (loss %v)", p.detect.MarkLoss)
		res.check(p.traceback.Culprit == recipientID(leakerIndex), "traceback named %q, want %q",
			p.traceback.Culprit, recipientID(leakerIndex))
	}
	n := len(passes)
	res.e2e["op_p50_ms"] = median(opMs)
	res.e2e["rows_per_s"] = float64(rows) / busy.Seconds()
	res.e2e["allocs_per_row"] = perRow(allocs, rows)
	for _, m := range []string{"op_p50_ms", "rows_per_s", "allocs_per_row"} {
		res.samples[m] = n
	}
	res.op("detect_s", "s", median(detectS), n)
	res.op("traceback_s", "s", median(tracebackS), n)
	res.info["suspect_rows"] = passes[0].detect.Rows
	res.info["mark_loss"] = passes[0].detect.MarkLoss
	if !cfg.trace {
		return nil
	}
	return traceLeak(ctx, res, cfg, fw, ls)
}

// setupLeak releases a copy to one recipient of the fleet and attacks
// it the way a leaker would: alter a tenth of the rows, delete a tenth.
func setupLeak(ctx context.Context, cfg *config, fw *core.Framework) (*leakSetup, error) {
	input := filepath.Join(cfg.workdir, "input.csv")
	released := filepath.Join(cfg.workdir, "released.csv")
	suspect := filepath.Join(cfg.workdir, "suspect.csv")
	tbl, err := generateTable(cfg.rows, cfg.dataSeed)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	if err := writeCSVFile(input, tbl); err != nil {
		return nil, err
	}
	tbl = nil

	leaker := recipientID(leakerIndex)
	key := crypt.RecipientWatermarkKey(ownerSecret, leaker, ownerEta)
	src, err := openSegments(input, schema)
	if err != nil {
		return nil, err
	}
	planned, err := fw.PlanStream(ctx, src, key)
	src.Close()
	if err != nil {
		return nil, err
	}
	plan, err := core.RecipientPlan(planned.Plan, leaker)
	if err != nil {
		return nil, err
	}
	if src, err = openSegments(input, schema); err != nil {
		return nil, err
	}
	defer src.Close()
	sink, err := createSink(released)
	if err != nil {
		return nil, err
	}
	streamed, err := fw.ApplyStream(ctx, src, plan, key, sink)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := attackCopy(released, suspect, schema, cfg.reqSeed); err != nil {
		return nil, err
	}

	ls := &leakSetup{schema: schema, suspect: suspect, prov: streamed.Plan.Provenance, key: key}
	for i := 0; i < fleetSize; i++ {
		id := recipientID(i)
		rp, err := core.RecipientPlan(&streamed.Plan, id)
		if err != nil {
			return nil, err
		}
		ls.candidates = append(ls.candidates, core.Candidate{
			ID: id, Provenance: rp.Provenance, Key: crypt.RecipientWatermarkKey(ownerSecret, id, ownerEta),
		})
	}
	return ls, nil
}

// attackCopy streams the released CSV into the suspect CSV, altering
// the quasi columns of alterFrac of each segment's rows (to values seen
// in the first segment, so they stay plausible) and deleting deleteFrac.
func attackCopy(released, suspect string, schema *relation.Schema, seed int64) error {
	src, err := openSegments(released, schema)
	if err != nil {
		return err
	}
	defer src.Close()
	sink, err := createSink(suspect)
	if err != nil {
		return err
	}
	sw := relation.NewSegmentWriter(sink, schema)
	rng := rand.New(rand.NewSource(seed))
	var values map[string][]string
	for {
		seg, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sink.Close()
			return err
		}
		if values == nil {
			values = make(map[string][]string)
			for _, col := range schema.QuasiColumns() {
				idx, err := schema.Index(col)
				if err != nil {
					sink.Close()
					return err
				}
				values[col] = append([]string(nil), seg.DictValues(idx)...)
			}
		}
		if _, err := attack.AlterSubset(seg, values, alterFrac, rng); err != nil {
			sink.Close()
			return err
		}
		if _, err := attack.DeleteRandom(seg, deleteFrac, rng); err != nil {
			sink.Close()
			return err
		}
		if err := sw.WriteSegment(seg); err != nil {
			sink.Close()
			return err
		}
	}
	if err := sw.Flush(); err != nil {
		sink.Close()
		return err
	}
	return sink.Close()
}

// forensics is one timed detect + traceback pass.
type forensics struct {
	detect                  *core.DetectStreamed
	traceback               *core.TracebackStreamed
	detectDur, tracebackDur time.Duration
	allocs                  uint64
}

func forensicsOnce(ctx context.Context, fw *core.Framework, ls *leakSetup) (*forensics, error) {
	src, err := openSegments(ls.suspect, ls.schema)
	if err != nil {
		return nil, err
	}
	a0 := heapAllocs()
	start := time.Now()
	det, err := fw.DetectStream(ctx, src, ls.prov, ls.key)
	detectDur := time.Since(start)
	src.Close()
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	if src, err = openSegments(ls.suspect, ls.schema); err != nil {
		return nil, err
	}
	defer src.Close()
	start = time.Now()
	tb, err := fw.TracebackStream(ctx, src, ls.candidates)
	tracebackDur := time.Since(start)
	allocs := heapAllocs() - a0
	if err != nil {
		return nil, fmt.Errorf("traceback: %w", err)
	}
	return &forensics{detect: det, traceback: tb, detectDur: detectDur, tracebackDur: tracebackDur, allocs: allocs}, nil
}

// traceLeak replays detect and traceback layer by layer and reports the
// per-layer metrics of leak-1m. A run's single calls vary by several
// percent on a shared machine, so leakTraceRounds rounds each time a real
// call next to its replay and the figures average over rounds. Detect
// calls are short, so allocations are counted in one more, untimed,
// replay: counting stops the world at every span boundary.
func traceLeak(ctx context.Context, res *result, cfg *config, fw *core.Framework, ls *leakSetup) error {
	tr, counted := newTracer(false), newTracer(true)
	var realDetect, realTraceback, detectLayers, tracebackLayers, replayTotal time.Duration
	identical := 0
	for round := 0; round < leakTraceRounds; round++ {
		real, err := forensicsOnce(ctx, fw, ls)
		if err != nil {
			return err
		}
		realDetect += real.detectDur
		realTraceback += real.tracebackDur

		detectID := tr.begin("core.DetectStream")
		det, err := replayDetect(ctx, tr, fw, ls)
		replayTotal += tr.end(detectID)
		if err != nil {
			return fmt.Errorf("detect replay: %w", err)
		}
		want := real.detect.Detection
		if res.check(det.Result.Mark.String() == want.Result.Mark.String() && det.MarkLoss == want.MarkLoss &&
			det.Match == want.Match && det.Result.Stats == want.Result.Stats,
			"replayed detect verdict differs from DetectStream's") {
			identical++
		}

		tracebackID := tr.begin("core.TracebackStream")
		tb, votes, err := replayTraceback(ctx, tr, fw, ls)
		replayTotal += tr.end(tracebackID)
		if err != nil {
			return fmt.Errorf("traceback replay: %w", err)
		}
		if res.check(sameTraceback(tb, &real.traceback.Traceback), "replayed traceback verdicts differ from TracebackStream's") {
			identical++
		}
		detectLayers += tr.childDur(detectID)
		tracebackLayers += tr.childDur(tracebackID)
		res.layers["watermark.votes_cast"] = float64(det.Result.Stats.VotesCast + votes)
		res.info["suspect_rows"] = real.detect.Rows
		res.attempted += 4
	}
	if _, err := replayDetect(ctx, counted, fw, ls); err != nil {
		return fmt.Errorf("detect replay: %w", err)
	}
	if _, _, err := replayTraceback(ctx, counted, fw, ls); err != nil {
		return fmt.Errorf("traceback replay: %w", err)
	}

	rows := res.info["suspect_rows"].(int)
	per := func(d time.Duration) float64 { return d.Seconds() / leakTraceRounds }
	res.layers["core.detect_residual_s"] = per(realDetect - detectLayers)
	res.layers["core.traceback_residual_s"] = per(realTraceback - tracebackLayers)
	res.layers["trace.detect_coverage"] = detectLayers.Seconds() / realDetect.Seconds()
	res.layers["trace.traceback_coverage"] = tracebackLayers.Seconds() / realTraceback.Seconds()
	res.layers["trace.overhead_pct"] = 100 * (replayTotal - realDetect - realTraceback).Seconds() / (realDetect + realTraceback).Seconds()
	res.layers["trace.replays_identical"] = float64(identical)
	var readAllocs uint64
	for _, name := range []string{"watermark.detect_add", "watermark.detect_result", "watermark.suspect_prepare",
		"watermark.select", "watermark.accumulate"} {
		readAllocs += counted.total(name).allocs
	}
	res.layers["watermark.detect_allocs_per_row"] = perRow(readAllocs, 2*rows)
	setLayerTimes(res, tr, counted, leakTraceRounds, 2*rows)
	return saveSpans(cfg, tr)
}

// replayDetect is DetectStream's call sequence, each call a span.
func replayDetect(ctx context.Context, tr *tracer, fw *core.Framework, ls *leakSetup) (*core.Detection, error) {
	fc := fw.Config()
	columns, err := fw.SpecsFromProvenance(ls.prov)
	if err != nil {
		return nil, err
	}
	params, err := paramsOf(ls.prov, ls.key, fc.Workers)
	if err != nil {
		return nil, err
	}
	accum, err := watermark.NewDetectAccum(ls.prov.IdentCol, columns, params)
	if err != nil {
		return nil, err
	}
	src, err := openSegments(ls.suspect, ls.schema)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	for {
		var seg *relation.Table
		err := tr.call("relation.ingest", func() (err error) { seg, err = src.Next(); return err })
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := tr.call("watermark.detect_add", func() error { return accum.AddContext(ctx, seg) }); err != nil {
			return nil, err
		}
	}
	var dr watermark.DetectResult
	if err := tr.call("watermark.detect_result", func() (err error) { dr, err = accum.Result(); return err }); err != nil {
		return nil, err
	}
	loss, err := params.Mark.LossFraction(dr.Mark)
	if err != nil {
		return nil, err
	}
	return &core.Detection{Result: dr, MarkLoss: loss, Match: loss <= fc.LossThreshold}, nil
}

// replayTraceback is TracebackStream's call sequence, each call a span.
// It also returns the votes harvested across all candidates.
func replayTraceback(ctx context.Context, tr *tracer, fw *core.Framework, ls *leakSetup) (*core.Traceback, int, error) {
	fc := fw.Config()
	cands := ls.candidates
	params := make([]watermark.Params, len(cands))
	sigs := make([]string, len(cands))
	selKeys := make([]string, len(cands))
	boards := make([]*bitstr.VoteBoard, len(cands))
	stats := make([]watermark.DetectStats, len(cands))
	columnsOf := make(map[string]map[string]watermark.ColumnSpec)
	repOf := make(map[string]int)
	for i, c := range cands {
		p, err := paramsOf(c.Provenance, c.Key, 0)
		if err != nil {
			return nil, 0, err
		}
		params[i] = p
		sigs[i] = suspectSignature(c.Provenance)
		selKeys[i] = string(c.Key.K1) + "\x00" + strconv.FormatUint(c.Key.Eta, 10)
		boards[i] = bitstr.NewVoteBoard(p.WmdLen())
		if _, ok := repOf[sigs[i]]; !ok {
			columns, err := fw.SpecsFromProvenance(c.Provenance)
			if err != nil {
				return nil, 0, err
			}
			columnsOf[sigs[i]] = columns
			repOf[sigs[i]] = i
		}
	}
	src, err := openSegments(ls.suspect, ls.schema)
	if err != nil {
		return nil, 0, err
	}
	defer src.Close()
	for {
		var seg *relation.Table
		err := tr.call("relation.ingest", func() (err error) { seg, err = src.Next(); return err })
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		states := make(map[string]*watermark.Suspect, len(repOf))
		for sig, rep := range repOf {
			c := cands[rep]
			err := tr.call("watermark.suspect_prepare", func() (err error) {
				states[sig], err = watermark.PrepareSuspectContext(ctx, seg, c.Provenance.IdentCol, columnsOf[sig],
					params[rep].BoundaryPermutation, params[rep].WeightedVoting, fc.Workers)
				return err
			})
			if err != nil {
				return nil, 0, err
			}
		}
		sels := make(map[string]map[string]*watermark.Selection, len(repOf))
		for i, c := range cands {
			m := sels[sigs[i]]
			if m == nil {
				m = make(map[string]*watermark.Selection)
				sels[sigs[i]] = m
			}
			if _, ok := m[selKeys[i]]; ok {
				continue
			}
			err := tr.call("watermark.select", func() (err error) {
				m[selKeys[i]], err = states[sigs[i]].SelectContext(ctx, c.Key.K1, c.Key.Eta, fc.Workers)
				return err
			})
			if err != nil {
				return nil, 0, err
			}
		}
		err = tr.call("watermark.accumulate", func() error {
			return pool.ForEachCtx(ctx, fc.Workers, len(cands), func(i int) error {
				return states[sigs[i]].AccumulateContext(ctx, sels[sigs[i]][selKeys[i]], params[i], boards[i], &stats[i])
			})
		})
		if err != nil {
			return nil, 0, err
		}
	}

	verdicts := make([]core.TracebackVerdict, len(cands))
	votes := 0
	for i, c := range cands {
		folded, err := boards[i].FoldInto(params[i].Mark.Len())
		if err != nil {
			return nil, 0, err
		}
		mark := folded.Resolve()
		loss, err := params[i].Mark.LossFraction(mark)
		if err != nil {
			return nil, 0, err
		}
		verdicts[i] = core.TracebackVerdict{
			RecipientID: c.ID, Mark: mark.String(), MarkLoss: loss, MatchRatio: 1 - loss,
			Match: loss <= fc.LossThreshold, Confidence: mean(folded.Confidence()), VotesCast: stats[i].VotesCast,
		}
		votes += stats[i].VotesCast
	}
	return rankVerdicts(verdicts), votes, nil
}

// suspectSignature keys the suspect-side state candidates can share, as
// core does: identifying column, vote policy and frontiers.
func suspectSignature(prov core.Provenance) string {
	var sb strings.Builder
	sb.WriteString(prov.IdentCol)
	sb.WriteByte(0)
	for _, b := range []bool{prov.BoundaryPermutation, prov.WeightedVoting} {
		if b {
			sb.WriteByte(1)
		} else {
			sb.WriteByte(0)
		}
	}
	cols := make([]string, 0, len(prov.Columns))
	for col := range prov.Columns {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		cp := prov.Columns[col]
		sb.WriteByte(0)
		sb.WriteString(col)
		for _, v := range cp.Ulti {
			sb.WriteByte(1)
			sb.WriteString(v)
		}
		for _, v := range cp.Max {
			sb.WriteByte(2)
			sb.WriteString(v)
		}
	}
	return sb.String()
}

// rankVerdicts orders verdicts best match first and names the culprit,
// as core does.
func rankVerdicts(verdicts []core.TracebackVerdict) *core.Traceback {
	sort.SliceStable(verdicts, func(a, b int) bool {
		if verdicts[a].MatchRatio != verdicts[b].MatchRatio {
			return verdicts[a].MatchRatio > verdicts[b].MatchRatio
		}
		if verdicts[a].Confidence != verdicts[b].Confidence {
			return verdicts[a].Confidence > verdicts[b].Confidence
		}
		return verdicts[a].RecipientID < verdicts[b].RecipientID
	})
	out := &core.Traceback{Verdicts: verdicts}
	for _, v := range verdicts {
		if v.Match {
			out.Matches++
		}
	}
	if len(verdicts) > 0 && verdicts[0].Match {
		out.Culprit = verdicts[0].RecipientID
	}
	return out
}

func sameTraceback(a, b *core.Traceback) bool {
	if a.Culprit != b.Culprit || a.Matches != b.Matches || len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for i := range a.Verdicts {
		if a.Verdicts[i] != b.Verdicts[i] {
			return false
		}
	}
	return true
}

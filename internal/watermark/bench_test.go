package watermark

import (
	"context"
	"io"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// benchSegments1M returns the relation.DefaultChunk segments of a
// million datagen rows (seed 1) whose identifying column is encrypted,
// as ApplyStream selects after the transform and as a leaked release is
// read back, plus the η=75 key they are selected under.
func benchSegments1M(b *testing.B) ([]*relation.Table, crypt.WatermarkKey) {
	b.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: 1000000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("bench", 75)
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		b.Fatal(err)
	}
	identIdx, err := tbl.Schema().Index("ssn")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tbl.MapColumnCtx(context.Background(), 1, identIdx, func(dst []byte, v string) ([]byte, error) {
		return cipher.AppendEncryptString(dst, v), nil
	}, crypt.TokenLen); err != nil {
		b.Fatal(err)
	}
	var segs []*relation.Table
	src := tbl.Segments(relation.DefaultChunk)
	for {
		seg, err := src.Next()
		if err == io.EOF {
			return segs, key
		}
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, seg)
	}
}

// benchWalk returns leaf frontiers under root usage metrics for every
// quasi column of the datagen schema — the longest walk the builtin
// trees allow — and the 20-bit, l=4 parameters the walks run under.
func benchWalk(b *testing.B, key crypt.WatermarkKey) (map[string]ColumnSpec, Params) {
	b.Helper()
	columns := make(map[string]ColumnSpec)
	for col, tree := range ontology.Trees() {
		columns[col] = ColumnSpec{Tree: tree, MaxGen: dht.RootGenSet(tree), UltiGen: dht.LeafGenSet(tree)}
	}
	mark, err := bitstr.FromString("10110010011011010010")
	if err != nil {
		b.Fatal(err)
	}
	return columns, Params{
		Key:                    key,
		Mark:                   mark,
		Duplication:            4,
		SaltPositionWithColumn: true,
	}
}

// benchSelections selects every segment under the key's (K1, η).
func benchSelections(b *testing.B, segs []*relation.Table, key crypt.WatermarkKey) []*Selection {
	b.Helper()
	sels := make([]*Selection, len(segs))
	for i, seg := range segs {
		sel, err := SelectForEmbedContext(context.Background(), seg, "ssn", key.K1, key.Eta, 0)
		if err != nil {
			b.Fatal(err)
		}
		sels[i] = sel
	}
	return sels
}

// reportRows reports the rows walked per second.
func reportRows(b *testing.B, segs []*relation.Table) {
	rows := 0
	for _, seg := range segs {
		rows += seg.NumRows()
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkSelectForEmbed1M is the Equation (5) selection layer of the
// write path: SelectForEmbedContext at η=75 over the segments of
// benchSegments1M. Segments and keys are built before the timer starts.
// It reports rows/s and allocations.
func BenchmarkSelectForEmbed1M(b *testing.B) {
	segs, key := benchSegments1M(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seg := range segs {
			if _, err := SelectForEmbedContext(ctx, seg, "ssn", key.K1, key.Eta, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportRows(b, segs)
}

// BenchmarkEmbedSelected1M is the embed layer of the write path:
// EmbedSelectedContext over each segment of benchSegments1M with its
// precomputed η=75 selection, planning the columns and walking the
// selected rows as ApplyStream does per segment. Segments, frontiers
// and selections are built before the timer starts; the walk from the
// root cover does not depend on the current value, so re-embedding the
// same segments repeats the same work. It reports rows/s and
// allocations.
func BenchmarkEmbedSelected1M(b *testing.B) {
	segs, key := benchSegments1M(b)
	columns, p := benchWalk(b, key)
	sels := benchSelections(b, segs, key)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, seg := range segs {
			if _, err := EmbedSelectedContext(ctx, seg, sels[si], columns, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportRows(b, segs)
}

// BenchmarkAccumulate1M is one candidate's vote walk on the read path:
// AccumulateContext over each prepared segment of benchSegments1M with
// its η=75 selection, into one persistent board, as DetectStream walks
// a leaked release. Suspects and selections are built before the timer
// starts. It reports rows/s and allocations.
func BenchmarkAccumulate1M(b *testing.B) {
	segs, key := benchSegments1M(b)
	columns, p := benchWalk(b, key)
	sels := benchSelections(b, segs, key)
	ctx := context.Background()
	suspects := make([]*Suspect, len(segs))
	for i, seg := range segs {
		s, err := PrepareSuspectContext(ctx, seg, "ssn", columns, p.BoundaryPermutation, p.WeightedVoting, 0)
		if err != nil {
			b.Fatal(err)
		}
		suspects[i] = s
	}
	board := bitstr.NewVoteBoard(p.WmdLen())
	var stats DetectStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, s := range suspects {
			if err := s.AccumulateContext(ctx, sels[si], p, board, &stats); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportRows(b, segs)
}

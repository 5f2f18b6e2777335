package watermark

import (
	"context"
	"io"
	"testing"

	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// BenchmarkSelectForEmbed1M is the Equation (5) selection layer of the
// write path: SelectForEmbedContext at η=75 over the
// relation.DefaultChunk segments of a million datagen rows (seed 1)
// whose identifying column is encrypted, as ApplyStream selects after
// the transform. Segments and keys are built before the timer starts.
// It reports rows/s and allocations.
func BenchmarkSelectForEmbed1M(b *testing.B) {
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
	if _, err := tbl.MapColumn(identIdx, func(dst []byte, v string) ([]byte, error) {
		return cipher.AppendEncryptString(dst, v), nil
	}); err != nil {
		b.Fatal(err)
	}
	rows := tbl.NumRows()
	var segs []*relation.Table
	src := tbl.Segments(relation.DefaultChunk)
	for {
		seg, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, seg)
	}
	tbl = nil
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
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

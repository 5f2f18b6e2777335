// Quickstart: protect a clinical table and verify the mark — the minimal
// end-to-end use of the medshield public API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/medshield"
)

func main() {
	ctx := context.Background()
	// A hospital's table: R(ssn, age, zip_code, doctor, symptom,
	// prescription) — here synthetic, in practice loaded with
	// medshield.LoadCSVFile.
	table, err := medshield.GenerateSyntheticData(5000, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original table: %d tuples\n", table.NumRows())
	fmt.Printf("  sample row: %v\n", table.Row(0))

	// The framework: k-anonymity at k=20 with the §6 slack applied
	// automatically, over the builtin medical ontologies.
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		log.Fatal(err)
	}

	// The secret key set (k1, k2, η, encryption key) derives from one
	// passphrase. η=75 marks roughly one tuple in 75.
	key := medshield.NewKey("st-olaf hospital secret 2026", 75)

	// Protect = bin (privacy) + watermark (ownership).
	protected, err := fw.ProtectContext(ctx, table, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprotected table: %d tuples, k=%d (ε=%d)\n",
		protected.Table.NumRows(), protected.Provenance.K, protected.Provenance.Epsilon)
	fmt.Printf("  sample row: %v\n", protected.Table.Row(0))
	fmt.Printf("  avg information loss: %.1f%%\n", protected.Plan.AvgLoss*100)
	fmt.Printf("  marked tuples: %d, cells changed: %d\n",
		protected.Embed.TuplesSelected, protected.Embed.CellsChanged)
	fmt.Printf("  bins below k after watermarking: %d (must be 0)\n", protected.BinStats.BelowK)

	// Later: did this copy come from us? Detection needs the secret and
	// the provenance record (no original table required).
	det, err := fw.DetectContext(ctx, protected.Table, protected.Provenance, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndetection: loss=%.1f%% match=%v\n", det.MarkLoss*100, det.Match)

	// The wrong key sees nothing.
	wrongDet, err := fw.DetectContext(ctx, protected.Table, protected.Provenance,
		medshield.NewKey("some other hospital", 75))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrong key:  loss=%.1f%% match=%v\n", wrongDet.MarkLoss*100, wrongDet.Match)
}

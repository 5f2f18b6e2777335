// Ownership dispute: the §5.4 rightful ownership problem played out. A
// thief mounts both attacks of Figure 10 — inserting his own mark into
// the stolen table (Attack 1) and fabricating a bogus "original" whose
// mark he claims to have extracted (Attack 2). The court procedure
// (decrypt the identifying column, check the statistic, check the mark
// commitment F(v), detect the mark) upholds the owner and rejects the
// thief, without the owner presenting the full original table.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ownership"
	"repro/internal/watermark"
	"repro/medshield"
)

func main() {
	ctx := context.Background()
	table, err := medshield.GenerateSyntheticData(10000, 23)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		log.Fatal(err)
	}
	ownerKey := medshield.NewKey("general hospital master secret", 50)
	protected, err := fw.ProtectContext(ctx, table, ownerKey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner published a protected table of %d tuples\n", protected.Table.NumRows())
	fmt.Printf("owner's mark (= F(v), v = mean of clear-text SSNs): %s\n\n", protected.Provenance.Mark)

	// --- Attack 1: the thief over-embeds his own mark -------------------
	thiefKey := medshield.NewKey("thief secret", 50)
	thiefV := 5.55e8 // a statistic the thief invents
	thiefMark, err := ownership.MarkFromStatistic(thiefV, protected.Provenance.Quantum, 20)
	if err != nil {
		log.Fatal(err)
	}
	specs, err := fw.SpecsFromProvenance(protected.Provenance)
	if err != nil {
		log.Fatal(err)
	}
	thiefParams := watermark.Params{
		Key: thiefKey, Mark: thiefMark, Duplication: protected.Provenance.Duplication,
		SaltPositionWithColumn: true,
	}
	stolen := protected.Table.Clone()
	if _, err := watermark.EmbedContext(ctx, stolen, protected.Provenance.IdentCol, specs, thiefParams); err != nil {
		log.Fatal(err)
	}
	fmt.Println("thief over-embedded his own mark into the stolen table (Attack 1)")

	// Both parties claim the stolen table. The court runs §5.4.
	verdicts, err := fw.DisputeContext(ctx, stolen, protected.Provenance, ownerKey, []ownership.Claim{{
		Claimant: "thief (attack 1)",
		V:        thiefV,
		Key:      thiefKey,
		Mark:     thiefMark,
	}})
	if err != nil {
		log.Fatal(err)
	}
	printVerdicts(verdicts)

	// --- Attack 2: the thief "extracts" a mark to forge an original -----
	// He detects whatever bit pattern his key reads from the owner's
	// table and calls that his watermark, claiming the un-permuted table
	// is his original. His claim still needs a statistic v with
	// mark == F(v) and |v − v'| < τ over identifiers only the owner can
	// decrypt — impossible on both counts.
	forgedDet, err := fw.DetectContext(ctx, stolen, protected.Provenance, thiefKey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("thief forged an 'extracted original' (Attack 2)")
	verdicts, err = fw.DisputeContext(ctx, stolen, protected.Provenance, ownerKey, []ownership.Claim{{
		Claimant: "thief (attack 2)",
		V:        9.87e8,
		Key:      thiefKey,
		Mark:     forgedDet.Result.Mark,
	}})
	if err != nil {
		log.Fatal(err)
	}
	printVerdicts(verdicts)
}

func printVerdicts(verdicts []ownership.Verdict) {
	for _, v := range verdicts {
		status := "REJECTED"
		if v.Valid {
			status = "UPHELD"
		}
		fmt.Printf("  claim %-18s -> %-8s", v.Claimant, status)
		if !v.Valid {
			fmt.Printf(" (%s)", v.Reason)
		}
		fmt.Println()
	}
	fmt.Println()
}

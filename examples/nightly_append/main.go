// Nightly append: incremental protection for a repository that keeps
// growing after the initial release. The hospital protects its export
// once — ProtectContext is PlanContext (binning search + ownership mark)
// followed by ApplyContext (encrypt, generalize, embed) — and retains
// the returned plan next to the secret. Every night, the day's new
// admissions are protected under that frozen plan with AppendContext: no
// binning search, the same mark with the same per-value addressing, so
// detection over the whole published union keeps voting the owner's
// mark. When a batch no longer fits the plan (a value outside the
// planned frontiers, or a fresh value combination too thin to publish),
// AppendContext refuses with ErrPlanDrift and the hospital re-plans over the
// combined table.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/medshield"
)

func main() {
	ctx := context.Background()
	// ---- Day 0: initial release ---------------------------------------
	// 6,000 historical records are planned, protected and outsourced.
	history, err := medshield.GenerateSyntheticData(6500, 11)
	if err != nil {
		log.Fatal(err)
	}
	base, err := history.Slice(0, 6000)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		log.Fatal(err)
	}
	key := medshield.NewKey("hospital archive secret", 50)

	protected, err := fw.ProtectContext(ctx, base, key)
	if err != nil {
		log.Fatal(err)
	}
	published := protected.Table.Clone()
	plan := protected.Plan // superset of Provenance; serialize with MarshalPlan
	fmt.Printf("day 0: published %d tuples (k=%d, ε=%d, %d bins)\n",
		published.NumRows(), plan.K, plan.Epsilon, len(plan.Bins))

	// The plan round-trips through JSON — what the hospital actually
	// stores between nights.
	doc, err := medshield.MarshalPlan(&plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 0: plan file is %d bytes (no key material inside)\n", len(doc))

	// ---- Night 1: a batch of new admissions ---------------------------
	stored, err := medshield.ParsePlan(doc)
	if err != nil {
		log.Fatal(err)
	}
	nightly, err := history.Slice(6000, 6500)
	if err != nil {
		log.Fatal(err)
	}
	app, err := fw.AppendContext(ctx, nightly, stored, key)
	if err != nil {
		log.Fatal(err)
	}
	if err := published.AppendTable(app.Table); err != nil {
		log.Fatal(err)
	}
	plan = app.Plan // next night verifies against the advanced record
	fmt.Printf("night 1: appended %d tuples (%d marked, %d new bins) — union %d tuples\n",
		app.Table.NumRows(), app.Embed.TuplesSelected, app.NewBins, plan.Rows)

	// Detection over old + new rows still votes the owner's mark.
	det, err := fw.DetectContext(ctx, published, plan.Provenance, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("night 1: detection over the union — match=%v, loss=%.1f%%\n",
		det.Match, det.MarkLoss*100)

	// ---- A drifting batch ---------------------------------------------
	// A record arrives with a symptom the planned ontology has never
	// seen. The plan cannot generalize it to the frozen frontiers, so
	// the append refuses instead of silently weakening the guarantee.
	drifting := nightly.Clone()
	if err := drifting.SetCell(0, "symptom", "newly catalogued syndrome"); err != nil {
		log.Fatal(err)
	}
	if _, err := fw.AppendContext(ctx, drifting, &plan, key); errors.Is(err, medshield.ErrPlanDrift) {
		fmt.Println("drift: batch refused (ErrPlanDrift) — re-planning over the combined table")
	} else if err != nil {
		log.Fatal(err)
	} else {
		log.Fatal("drifting batch unexpectedly accepted")
	}

	// The remedy: decrypt the published identifiers (the owner holds the
	// key), rebuild the clear-text union, and re-plan. Here we simply
	// demonstrate the re-plan over the original clear-text union.
	union := base.Clone()
	if err := union.AppendTable(nightly); err != nil {
		log.Fatal(err)
	}
	reprot, err := fw.ProtectContext(ctx, union, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-plan: %d tuples re-published under a fresh plan (%d bins)\n",
		reprot.Table.NumRows(), len(reprot.Plan.Bins))
}

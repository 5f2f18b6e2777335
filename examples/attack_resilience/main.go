// Attack resilience: a data thief tries every §7.2 attack (and the §5.2
// generalization attack) to scrub the watermark from a stolen table; the
// owner's detector survives each one. This is the Figure 12 story as a
// runnable program.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/attack"
	"repro/medshield"
)

func main() {
	ctx := context.Background()
	table, err := medshield.GenerateSyntheticData(20000, 11)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		log.Fatal(err)
	}
	key := medshield.NewKey("resilience demo secret", 50)
	protected, err := fw.ProtectContext(ctx, table, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protected %d tuples; %d carry mark bits\n\n",
		protected.Table.NumRows(), protected.Embed.TuplesSelected)

	specs, err := fw.SpecsFromProvenance(protected.Provenance)
	if err != nil {
		log.Fatal(err)
	}
	pools := map[string][]string{}
	for col, spec := range specs {
		pools[col] = spec.UltiGen.Values()
	}

	report := func(name string, tbl *medshield.Table) {
		det, err := fw.DetectContext(ctx, tbl, protected.Provenance, key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s rows=%-6d mark loss=%5.1f%%  match=%v\n",
			name, tbl.NumRows(), det.MarkLoss*100, det.Match)
	}

	report("no attack", protected.Table)

	// Subset alteration: 40% of tuples overwritten with plausible values.
	t1 := protected.Table.Clone()
	rng := rand.New(rand.NewSource(1))
	if _, err := attack.AlterSubset(t1, pools, 0.4, rng); err != nil {
		log.Fatal(err)
	}
	report("alter 40%", t1)

	// Subset addition: 50% bogus tuples appended.
	t2 := protected.Table.Clone()
	gen := attack.BogusRowGenerator(t2.Schema(), protected.Provenance.IdentCol, "bogus", pools, rng)
	if _, err := attack.AddSubset(t2, 0.5, gen); err != nil {
		log.Fatal(err)
	}
	report("add 50% bogus", t2)

	// Subset deletion: half the table dropped via SSN-range deletes.
	t3 := protected.Table.Clone()
	if _, err := attack.DeleteRanges(t3, protected.Provenance.IdentCol, 0.5, 8, rng); err != nil {
		log.Fatal(err)
	}
	report("range-delete 50%", t3)

	// Generalization attack (§5.2): every quasi value one level up,
	// within the usage metrics — the keyless attack that kills
	// single-level schemes.
	t4 := protected.Table.Clone()
	for col, spec := range specs {
		if _, err := attack.Generalize(t4, col, spec.Tree, spec.MaxGen, 1); err != nil {
			log.Fatal(err)
		}
	}
	report("generalization attack", t4)

	// Everything at once.
	t5 := protected.Table.Clone()
	if _, err := attack.AlterSubset(t5, pools, 0.2, rng); err != nil {
		log.Fatal(err)
	}
	if _, err := attack.AddSubset(t5, 0.2, attack.BogusRowGenerator(
		t5.Schema(), protected.Provenance.IdentCol, "bogus", pools, rng)); err != nil {
		log.Fatal(err)
	}
	if _, err := attack.DeleteRandom(t5, 0.2, rng); err != nil {
		log.Fatal(err)
	}
	for col, spec := range specs {
		if _, err := attack.Generalize(t5, col, spec.Tree, spec.MaxGen, 1); err != nil {
			log.Fatal(err)
		}
	}
	report("combined battery", t5)
}

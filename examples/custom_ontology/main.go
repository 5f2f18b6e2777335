// Custom ontology: the framework is not married to the builtin medical
// schema. This example protects a veterinary clinic's table with a
// user-defined schema and hand-built domain hierarchy trees (one
// categorical, one numeric), shows the JSON tree format round-tripping
// (the same format `medprotect trees` emits for editing), and runs the
// protect → attack → detect cycle on the custom domain.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dht"
	"repro/medshield"
)

func main() {
	ctx := context.Background()
	// ---- schema: R(tag, species, weight) -------------------------------
	schema, err := medshield.NewSchema([]medshield.Column{
		{Name: "tag", Kind: medshield.Identifying},
		{Name: "species", Kind: medshield.QuasiCategorical},
		{Name: "weight", Kind: medshield.QuasiNumeric},
	})
	if err != nil {
		log.Fatal(err)
	}

	// ---- trees ----------------------------------------------------------
	speciesTree, err := dht.NewCategorical("species", dht.Spec{
		Value: "Animal",
		Children: []dht.Spec{
			{Value: "Companion", Children: []dht.Spec{
				{Value: "Canine", Children: []dht.Spec{
					{Value: "Labrador"}, {Value: "Beagle"}, {Value: "Poodle"},
				}},
				{Value: "Feline", Children: []dht.Spec{
					{Value: "Siamese"}, {Value: "Persian"}, {Value: "Maine Coon"},
				}},
			}},
			{Value: "Livestock", Children: []dht.Spec{
				{Value: "Bovine", Children: []dht.Spec{
					{Value: "Holstein"}, {Value: "Angus"},
				}},
				{Value: "Ovine", Children: []dht.Spec{
					{Value: "Merino"}, {Value: "Suffolk"},
				}},
			}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// weights 0..1000 kg in 25 kg leaves, combined pairwise (Figure 3).
	weightTree, err := dht.NewNumericUniform("weight", 0, 1000, 25)
	if err != nil {
		log.Fatal(err)
	}

	// The JSON codec round-trips custom trees (the editable format that
	// `medprotect trees` writes out).
	blob, err := speciesTree.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	reparsed, err := medshield.ParseTree(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("species tree: %d nodes (%d after JSON round-trip)\n",
		speciesTree.Size(), reparsed.Size())

	// ---- data -----------------------------------------------------------
	tbl := medshield.NewTable(schema)
	rng := rand.New(rand.NewSource(4))
	leaves := speciesTree.Leaves()
	for i := 0; i < 6000; i++ {
		leaf := leaves[rng.Intn(len(leaves))]
		species := speciesTree.Value(leaf)
		// weights correlate with the species branch
		var weight int
		if sp, _ := speciesTree.AncestorAtDepth(leaf, 1); speciesTree.Value(sp) == "Livestock" {
			weight = 300 + rng.Intn(600)
		} else {
			weight = 2 + rng.Intn(70)
		}
		if err := tbl.AppendRow([]string{
			fmt.Sprintf("TAG-%06d", i),
			species,
			fmt.Sprintf("%d", weight),
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("generated %d veterinary records\n", tbl.NumRows())

	// ---- protect ----------------------------------------------------------
	fw, err := medshield.New(map[string]*medshield.Tree{
		"species": speciesTree,
		"weight":  weightTree,
	}, medshield.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		log.Fatal(err)
	}
	key := medshield.NewKey("veterinary clinic secret", 40)
	p, err := fw.ProtectContext(ctx, tbl, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protected at k=%d (ε=%d); sample row: %v\n",
		p.Provenance.K, p.Provenance.Epsilon, p.Table.Row(0))

	// ---- attack + detect ---------------------------------------------------
	pirated := p.Table.Clone()
	n := pirated.DeleteWhereView(func(medshield.RowView) bool { return rng.Intn(3) == 0 })
	det, err := fw.DetectContext(ctx, pirated, p.Provenance, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after deleting %d rows: mark loss %.1f%%, match=%v\n",
		n, det.MarkLoss*100, det.Match)
}

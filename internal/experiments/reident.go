package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/linkage"
	"repro/internal/ontology"
)

// ReIdentification (E12) quantifies the privacy premise of §1: the
// re-identification risk of a naive de-identified release (SSN removed,
// quasi columns raw) versus the core's protected release
// (core.Framework.ProtectContext: binned, identifiers encrypted,
// marked), against a worst-case adversary holding an external
// identified table covering every patient (the "voting records" of the
// paper's example). Swept over k.
func ReIdentification(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	original, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	trees := ontology.Trees()
	quasi := original.Schema().QuasiColumns()

	external, err := linkage.ExternalView(original, ontology.ColSSN, quasi)
	if err != nil {
		return nil, err
	}

	out := &Table{
		ID:     "E12 / §1 premise",
		Title:  "linking-attack re-identification: naive release vs binned release",
		Header: []string{"release", "re-identified", "rate %", "min candidates", "max candidates"},
		Notes: []string{
			"adversary joins an identified external table (voter roll) on all five quasi columns",
		},
	}

	// Naive release: identifiers removed, quasi columns untouched.
	naive := original.Clone()
	ci, err := naive.Schema().Index(ontology.ColSSN)
	if err != nil {
		return nil, err
	}
	for i := 0; i < naive.NumRows(); i++ {
		naive.SetCellAt(i, ci, "anon")
	}
	res, err := linkage.Attack(naive, external, quasi, trees)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, []string{
		"de-identified only",
		fmt.Sprintf("%d", res.ReIdentified),
		pct(res.Rate()),
		fmt.Sprintf("%d", res.MinCandidates),
		fmt.Sprintf("%d", res.MaxCandidates),
	})

	// Binned releases: the product's protected output at each k.
	key := crypt.NewWatermarkKeyFromSecret(cfg.Secret, 75)
	for _, k := range []int{5, 10, 25, 50} {
		fw, err := core.New(trees, core.Config{K: k, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		prot, err := fw.ProtectContext(context.Background(), original, key)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		res, err := linkage.Attack(prot.Table, external, quasi, trees)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, []string{
			fmt.Sprintf("binned k=%d", k),
			fmt.Sprintf("%d", res.ReIdentified),
			pct(res.Rate()),
			fmt.Sprintf("%d", res.MinCandidates),
			fmt.Sprintf("%d", res.MaxCandidates),
		})
	}
	return out, nil
}

package ownership_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/ontology"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// The dispute tests of Figure 10 run the whole §5.4 procedure — the
// judge's steps (1)–(3) and detection in the core's read loop — over a
// core release.

// release is an owner's protected table plus what a dispute over it
// needs.
type release struct {
	fw      *core.Framework
	prot    *core.Protected
	key     crypt.WatermarkKey
	columns map[string]watermark.ColumnSpec
}

func newRelease(t *testing.T, rows int) *release {
	t.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: rows, Seed: 21, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("the-hospital", 8)
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	columns, err := fw.SpecsFromProvenance(prot.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	return &release{fw: fw, prot: prot, key: key, columns: columns}
}

// embedAs over-embeds mark into a copy of the released table under
// key, with the release's embedding policy.
func (r *release) embedAs(t *testing.T, key crypt.WatermarkKey, mark bitstr.Bits) *relation.Table {
	t.Helper()
	prov := r.prot.Provenance
	out := r.prot.Table.Clone()
	if _, err := watermark.EmbedContext(context.Background(), out, prov.IdentCol, r.columns, watermark.Params{
		Key: key, Mark: mark, Duplication: prov.Duplication,
		WeightedVoting:         prov.WeightedVoting,
		SaltPositionWithColumn: prov.SaltPositionWithColumn,
		BoundaryPermutation:    prov.BoundaryPermutation,
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOwnerClaimStands(t *testing.T) {
	r := newRelease(t, 3000)
	verdicts, err := r.fw.DisputeContext(context.Background(), r.prot.Table, r.prot.Provenance, r.key, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := verdicts[0]
	if !v.Valid {
		t.Fatalf("owner claim rejected: %+v", v)
	}
	if !v.DecryptOK || !v.StatisticOK || !v.MarkDerived || !v.MarkDetected {
		t.Errorf("verdict steps: %+v", v)
	}
}

func TestAttack1BogusAdditiveMark(t *testing.T) {
	// Figure 10, Attack 1: the attacker inserts his bogus mark Wa (with
	// his own key) into the owner's watermarked data and claims it.
	r := newRelease(t, 3000)
	attackerKey := crypt.NewWatermarkKeyFromSecret("data-thief", 8)
	bogusV := 4.2e8 // arbitrary claimed statistic
	bogusMark, err := ownership.MarkFromStatistic(bogusV, r.prot.Provenance.Quantum, 20)
	if err != nil {
		t.Fatal(err)
	}
	stolen := r.embedAs(t, attackerKey, bogusMark)

	verdicts, err := r.fw.DisputeContext(context.Background(), stolen, r.prot.Provenance, r.key, []ownership.Claim{
		{Claimant: "thief", V: bogusV, Key: attackerKey, Mark: bogusMark},
	})
	if err != nil {
		t.Fatal(err)
	}
	ownerV, thiefV := verdicts[0], verdicts[1]
	if !ownerV.Valid {
		t.Errorf("owner claim must survive the attacker's over-embedding: %+v", ownerV)
	}
	if thiefV.Valid {
		t.Errorf("thief claim must fail: %+v", thiefV)
	}
	if thiefV.DecryptOK {
		t.Error("thief cannot decrypt the identifying column; DecryptOK must be false")
	}
}

func TestAttack2BogusExtractedOriginal(t *testing.T) {
	// Figure 10, Attack 2: the attacker fabricates a bogus "original" Da
	// such that Da ⊕ Wa = Dw. Because the mark is F(v) of a statistic he
	// cannot compute (encrypted identifiers), his claimed (V, mark) pair
	// cannot both match: if he picks V freely, the statistic check fails;
	// if he guesses the mark, it is not F(V).
	r := newRelease(t, 3000)
	attackerKey := crypt.NewWatermarkKeyFromSecret("forger", 8)

	// The forger detects SOME bit pattern under his own key and declares
	// it "his mark", then claims a V that fits nothing.
	det, err := r.fw.DetectContext(context.Background(), r.prot.Table, r.prot.Provenance, attackerKey)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := r.fw.DisputeContext(context.Background(), r.prot.Table, r.prot.Provenance, r.key, []ownership.Claim{
		{Claimant: "forger", V: 7.7e8, Key: attackerKey, Mark: det.Result.Mark},
	})
	if err != nil {
		t.Fatal(err)
	}
	if forger := verdicts[1]; forger.Valid {
		t.Fatalf("forger claim must fail: %+v", forger)
	}
}

func TestDisputeSurvivesTupleAttacks(t *testing.T) {
	// §5.4 motivates the statistic: the disputed table has usually been
	// attacked (deletions, additions); the owner's claim must still stand.
	r := newRelease(t, 4000)
	rng := rand.New(rand.NewSource(31))
	attacked := r.prot.Table.Clone()
	if _, err := attack.DeleteRandom(attacked, 0.2, rng); err != nil {
		t.Fatal(err)
	}
	pools := map[string][]string{}
	for col, spec := range r.columns {
		pools[col] = spec.UltiGen.Values()
	}
	gen := attack.BogusRowGenerator(attacked.Schema(), r.prot.Provenance.IdentCol, "bogus", pools, rng)
	if _, err := attack.AddSubset(attacked, 0.1, gen); err != nil {
		t.Fatal(err)
	}
	verdicts, err := r.fw.DisputeContext(context.Background(), attacked, r.prot.Provenance, r.key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0].Valid {
		t.Fatalf("owner claim failed on attacked table: %+v", verdicts[0])
	}
}

func TestJudgeRejectsNonCommittedMark(t *testing.T) {
	r := newRelease(t, 1000)
	flipped := []byte(r.prot.Provenance.Mark)
	flipped[0] ^= '0' ^ '1' // not F(v) anymore
	mark, err := bitstr.FromString(string(flipped))
	if err != nil {
		t.Fatal(err)
	}
	claim := ownership.Claim{
		Claimant: "hospital", V: r.prot.Provenance.V, Key: r.key,
		Mark: mark,
	}
	verdicts, err := r.fw.DisputeContext(context.Background(), r.prot.Table, r.prot.Provenance, r.key, []ownership.Claim{claim})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[1].Valid || verdicts[1].MarkDerived {
		t.Errorf("non-committed mark accepted: %+v", verdicts[1])
	}
}

package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// perClaimDispute is the oracle of TestDisputeMatchesPerClaimDetect:
// the dispute composed claim by claim, each claim judged on its own and
// detected by a watermark.DetectAccum fed the whole table under its
// parameters (the release's embedding policy, the claim's key, mark and
// duplication).
func perClaimDispute(t *testing.T, fw *Framework, disputed *relation.Table, prov Provenance, ownerKey crypt.WatermarkKey, rivals []ownership.Claim) []ownership.Verdict {
	t.Helper()
	ctx := context.Background()
	columns, err := fw.SpecsFromProvenance(prov)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := paramsFromProvenance(prov, ownerKey)
	if err != nil {
		t.Fatal(err)
	}
	judge := ownership.Judge{IdentCol: prov.IdentCol, Tau: fw.cfg.Tau, Quantum: prov.Quantum, LossThreshold: fw.cfg.LossThreshold}
	claims := append([]ownership.Claim{{Claimant: "owner", V: prov.V, Key: ownerKey, Mark: owner.Mark}}, rivals...)
	out := make([]ownership.Verdict, len(claims))
	for i, c := range claims {
		vs, err := judge.Commit(ctx, disputed, []ownership.Claim{c})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = vs[0]
		if !out[i].MarkDerived {
			continue
		}
		p := owner
		p.Key, p.Mark = c.Key, c.Mark
		if c.Duplication != 0 {
			p.Duplication = c.Duplication
		}
		var det watermark.DetectResult
		acc, err := watermark.NewDetectAccum(prov.IdentCol, columns, p)
		if err == nil {
			err = acc.AddContext(ctx, disputed)
		}
		if err == nil {
			det, err = acc.Result()
		}
		judge.Conclude(&out[i], c.Mark, det.Mark, err)
	}
	return out
}

// TestDisputeMatchesPerClaimDetect: DisputeContext detects every claim
// that passes steps (1)–(3) in one read of the disputed table, and its
// verdicts — MarkLoss and Reason included — equal the per-claim
// composition's for the owner, an Attack-1 thief, an Attack-2 forger, a
// wrong-statistic claim, rivals at another η or sharing the owner's
// selection, a claim at another duplication and one whose duplication
// no detection accepts.
func TestDisputeMatchesPerClaimDetect(t *testing.T) {
	fw := testFramework(t)
	const secret = "per-claim owner"
	ownerKey := crypt.NewWatermarkKeyFromSecret(secret, 20)
	prot, err := fw.ProtectContext(context.Background(), testData(t, 3000), ownerKey)
	if err != nil {
		t.Fatal(err)
	}
	prov := prot.Provenance
	mark, err := bitstr.FromString(prov.Mark)
	if err != nil {
		t.Fatal(err)
	}

	// Attack 1: the thief over-embeds F of an invented statistic.
	thiefKey := crypt.NewWatermarkKeyFromSecret("per-claim thief", 20)
	thiefV := 6.1e8
	thiefMark, err := ownership.MarkFromStatistic(thiefV, prov.Quantum, mark.Len())
	if err != nil {
		t.Fatal(err)
	}
	columns, err := fw.SpecsFromProvenance(prov)
	if err != nil {
		t.Fatal(err)
	}
	thiefParams, err := paramsFromProvenance(prov, thiefKey)
	if err != nil {
		t.Fatal(err)
	}
	thiefParams.Mark = thiefMark
	stolen := prot.Table.Clone()
	if _, err := watermark.EmbedContext(context.Background(), stolen, prov.IdentCol, columns, thiefParams); err != nil {
		t.Fatal(err)
	}
	// Attack 2: the forger claims whatever his key reads.
	forgerKey := crypt.NewWatermarkKeyFromSecret("per-claim forger", 20)
	forged, err := fw.DetectContext(context.Background(), stolen, prov, forgerKey)
	if err != nil {
		t.Fatal(err)
	}
	wrongV := prov.V + 10*fw.cfg.Tau
	wrongMark, err := ownership.MarkFromStatistic(wrongV, prov.Quantum, mark.Len())
	if err != nil {
		t.Fatal(err)
	}
	rivals := []ownership.Claim{
		{Claimant: "thief", V: thiefV, Key: thiefKey, Mark: thiefMark},
		{Claimant: "forger", V: 7.7e8, Key: forgerKey, Mark: forged.Result.Mark},
		{Claimant: "wrong statistic", V: wrongV, Key: ownerKey, Mark: wrongMark},
		{Claimant: "other eta", V: prov.V, Key: crypt.NewWatermarkKeyFromSecret(secret, 33), Mark: mark},
		{Claimant: "shared selection", V: prov.V, Key: crypt.RecipientWatermarkKey(secret, "r1", 20), Mark: mark},
		{Claimant: "duplication 2", V: prov.V, Key: ownerKey, Mark: mark, Duplication: 2},
		{Claimant: "duplication -1", V: prov.V, Key: ownerKey, Mark: mark, Duplication: -1},
	}

	for name, tbl := range map[string]*relation.Table{"release": prot.Table, "stolen": stolen} {
		reads := 0
		ctx := WithProgress(context.Background(), func(p Progress) {
			if p.Stage == "dispute" {
				reads++
			}
		})
		got, err := fw.DisputeContext(ctx, tbl, prov, ownerKey, rivals)
		if err != nil {
			t.Fatal(err)
		}
		if reads != 1 {
			t.Errorf("%s: %d reads of the disputed table, want 1", name, reads)
		}
		want := perClaimDispute(t, fw, tbl, prov, ownerKey, rivals)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: one-read verdicts differ from per-claim detection:\n got %+v\nwant %+v", name, got, want)
		}
		if !got[0].Valid || got[1].Valid || got[2].Valid || got[3].StatisticOK {
			t.Fatalf("%s: owner, thief, forger or wrong statistic misjudged: %+v", name, got[:4])
		}
		for _, v := range got[4:] {
			if !v.MarkDerived {
				t.Fatalf("%s: claim %q did not reach detection: %+v", name, v.Claimant, v)
			}
		}
	}
}

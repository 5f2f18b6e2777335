package core

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/attack"
	"repro/internal/binning"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

func testFramework(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func testData(t *testing.T, rows int) *relation.Table {
	t.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: rows, Seed: 77, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewDefaults(t *testing.T) {
	fw, err := New(ontology.Trees(), Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fw.Config()
	if cfg.MarkBits != 20 || cfg.Duplication != 4 {
		t.Errorf("defaults: MarkBits=%d Duplication=%d", cfg.MarkBits, cfg.Duplication)
	}
	if !cfg.SaltPositionWithColumn {
		t.Error("column salt should default on")
	}
	if cfg.Quantum == 0 || cfg.Tau == 0 || cfg.LossThreshold == 0 {
		t.Error("dispute defaults missing")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{K: 5}); err == nil {
		t.Error("nil trees accepted")
	}
	if _, err := New(ontology.Trees(), Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(ontology.Trees(), Config{K: 5, MarkBits: -1}); err == nil {
		t.Error("negative MarkBits accepted")
	}
	if _, err := New(ontology.Trees(), Config{K: 5, Duplication: -1}); err == nil {
		t.Error("negative Duplication accepted")
	}
}

func TestProtectEndToEnd(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 4000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)

	p, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	// privacy: k-anonymity holds on the published table
	ok, err := anonymity.SatisfiesK(p.Table, tbl.Schema().QuasiColumns(), 15)
	if err != nil || !ok {
		t.Error("published table violates k-anonymity")
	}
	// seamlessness: no bin fell below k
	if p.BinStats.BelowK != 0 {
		t.Errorf("%d bins below k after watermarking", p.BinStats.BelowK)
	}
	// ownership: detection under the right key matches
	det, err := fw.Detect(p.Table, p.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match || det.MarkLoss != 0 {
		t.Errorf("clean detection: match=%v loss=%v", det.Match, det.MarkLoss)
	}
	// input untouched
	if v, _ := tbl.Cell(0, ontology.ColSSN); len(v) < 5 || v[3] != '-' {
		t.Error("Protect mutated the input table")
	}
	// the mark is the §5.4 commitment F(v)
	wm, v, err := ownership.OwnerMark(tbl, ontology.ColSSN, p.Provenance.Quantum, 20)
	if err != nil {
		t.Fatal(err)
	}
	if wm.String() != p.Provenance.Mark || v != p.Provenance.V {
		t.Error("provenance mark/statistic do not match the §5.4 derivation")
	}
}

func TestDetectWrongKeyFails(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 3000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	p, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	wrong := crypt.NewWatermarkKeyFromSecret("not-the-owner", 25)
	det, err := fw.Detect(p.Table, p.Provenance, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if det.Match {
		t.Errorf("wrong key matched (loss %v)", det.MarkLoss)
	}
}

func TestDetectSurvivesAttacks(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 6000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 20)
	p, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	attacked := p.Table.Clone()
	rng := rand.New(rand.NewSource(3))
	if _, err := attack.DeleteRandom(attacked, 0.3, rng); err != nil {
		t.Fatal(err)
	}
	det, err := fw.Detect(attacked, p.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Errorf("mark lost after 30%% deletion (loss %v)", det.MarkLoss)
	}
}

func TestProvenanceJSONRoundtrip(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 2000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	p, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	var back Provenance
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// The full recovery chain: the round-tripped record must rebuild the
	// exact column specs before detection succeeds with them.
	specs, err := fw.SpecsFromProvenance(back)
	if err != nil {
		t.Fatal(err)
	}
	orig := fw.columnSpecs(p.Binning)
	if len(specs) != len(orig) {
		t.Fatalf("rebuilt %d specs, want %d", len(specs), len(orig))
	}
	for col, spec := range specs {
		o, ok := orig[col]
		if !ok {
			t.Fatalf("rebuilt spec for unknown column %s", col)
		}
		if !spec.UltiGen.Equal(o.UltiGen) || !spec.MaxGen.Equal(o.MaxGen) {
			t.Errorf("column %s: rebuilt frontiers differ from originals", col)
		}
	}
	det, err := fw.Detect(p.Table, back, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Error("detection failed with roundtripped provenance")
	}
}

func TestSpecsFromProvenanceErrors(t *testing.T) {
	fw := testFramework(t)
	prov := Provenance{Columns: map[string]ColumnProvenance{"nope": {}}}
	if _, err := fw.SpecsFromProvenance(prov); err == nil {
		t.Error("unknown column accepted")
	}
	prov = Provenance{Columns: map[string]ColumnProvenance{
		ontology.ColAge: {Ulti: []string{"bogus"}, Max: []string{"bogus"}},
	}}
	if _, err := fw.SpecsFromProvenance(prov); err == nil {
		t.Error("bogus frontier values accepted")
	}
}

func TestDisputeOwnerWins(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 4000)
	ownerKey := crypt.NewWatermarkKeyFromSecret("owner", 20)
	p, err := fw.Protect(tbl, ownerKey)
	if err != nil {
		t.Fatal(err)
	}
	// A thief over-embeds his own mark and raises a rival claim.
	thiefKey := crypt.NewWatermarkKeyFromSecret("thief", 20)
	thiefV := 9.9e8
	thiefMark, err := ownership.MarkFromStatistic(thiefV, p.Provenance.Quantum, 20)
	if err != nil {
		t.Fatal(err)
	}
	stolen := p.Table.Clone()
	specs, err := fw.SpecsFromProvenance(p.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	thiefParams, err := paramsFromProvenance(p.Provenance, thiefKey)
	if err != nil {
		t.Fatal(err)
	}
	thiefParams.Mark = thiefMark
	if _, err := watermark.Embed(stolen, p.Provenance.IdentCol, specs, thiefParams); err != nil {
		t.Fatal(err)
	}

	verdicts, err := fw.Dispute(stolen, p.Provenance, ownerKey, []ownership.Claim{{
		Claimant: "thief", V: thiefV, Key: thiefKey, Params: thiefParams,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	if !verdicts[0].Valid {
		t.Errorf("owner claim rejected: %+v", verdicts[0])
	}
	if verdicts[1].Valid {
		t.Errorf("thief claim accepted: %+v", verdicts[1])
	}
}

func TestProtectValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 100)
	if _, err := fw.Protect(tbl, crypt.WatermarkKey{}); err == nil {
		t.Error("empty key accepted")
	}
	// ident column override that does not exist
	bad, err := New(ontology.Trees(), Config{K: 5, IdentCol: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Protect(tbl, crypt.NewWatermarkKeyFromSecret("k", 10)); err == nil {
		t.Error("missing ident column accepted")
	}
}

func TestProtectBoundaryFallback(t *testing.T) {
	// Usage metrics at the leaves pin every maximal node to a leaf, so
	// every ultimate frontier node is its own maximal node and the
	// hierarchical channel is empty. The in-memory paths must fall back
	// to §5.1 boundary permutation, record it in the effective plan, and
	// still roundtrip detection; the streams cannot replay their input
	// and report ErrUnsatisfiable instead.
	tbl := testData(t, 5000)
	trees := ontology.Trees()
	maxGens := make(map[string]dht.GenSet)
	for _, col := range tbl.Schema().QuasiColumns() {
		maxGens[col] = dht.LeafGenSet(trees[col])
	}
	fw, err := New(trees, Config{K: 1, MaxGens: maxGens})
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("boundary-owner", 30)
	p, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Plan.BoundaryPermutation || !p.Provenance.BoundaryPermutation {
		t.Fatal("effective plan does not record the boundary-permutation fallback")
	}
	if p.Embed.BitsEmbedded == 0 {
		t.Fatal("no bits embedded even after fallback")
	}
	det, err := fw.Detect(p.Table, p.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Errorf("boundary-mode detection failed: loss %v", det.MarkLoss)
	}

	recipients := []Recipient{
		{ID: "a", Key: crypt.RecipientWatermarkKey("boundary-owner", "a", 30)},
		{ID: "b", Key: crypt.RecipientWatermarkKey("boundary-owner", "b", 30)},
	}
	copies, err := fw.Fingerprint(tbl, recipients)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range copies {
		if !c.Protected.Plan.BoundaryPermutation {
			t.Errorf("recipient %s: copy does not record the boundary-permutation fallback", c.RecipientID)
		}
	}

	plan, err := fw.Plan(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ApplyStream(context.Background(), tbl.Segments(1000), plan, key, io.Discard); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("ApplyStream: err = %v, want ErrUnsatisfiable", err)
	}
	outs := []io.Writer{io.Discard, io.Discard}
	if _, err := fw.FingerprintStream(context.Background(), tbl, recipients, outs); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("FingerprintStream: err = %v, want ErrUnsatisfiable", err)
	}
}

func TestDetectBadProvenanceMark(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 300)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	p, err := fw.Protect(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	bad := p.Provenance
	bad.Mark = "not-bits"
	if _, err := fw.Detect(p.Table, bad, key); err == nil {
		t.Error("garbage provenance mark accepted")
	}
	if _, err := fw.Dispute(p.Table, bad, key, nil); err == nil {
		t.Error("garbage provenance mark accepted by Dispute")
	}
}

func TestFrameworkAccessors(t *testing.T) {
	fw := testFramework(t)
	if len(fw.Trees()) != 5 {
		t.Errorf("Trees = %d", len(fw.Trees()))
	}
	if fw.Config().K != 15 {
		t.Errorf("Config.K = %d", fw.Config().K)
	}
}

// columnSpecs builds the watermark column specs straight from a binning
// result — the reference SpecsFromProvenance is checked against.
func (f *Framework) columnSpecs(res *binning.Result) map[string]watermark.ColumnSpec {
	out := make(map[string]watermark.ColumnSpec, len(res.UltiGens))
	for col, ulti := range res.UltiGens {
		out[col] = watermark.ColumnSpec{
			Tree:    f.trees[col],
			MaxGen:  res.MaxGens[col],
			UltiGen: ulti,
		}
	}
	return out
}

package ownership

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/crypt"
	"repro/internal/relation"
)

func TestIdentStatistic(t *testing.T) {
	v, err := IdentStatistic([]string{"123-45-6789", "111-11-1111"})
	if err != nil {
		t.Fatal(err)
	}
	want := (123456789.0 + 111111111.0) / 2
	if v != want {
		t.Errorf("v = %v, want %v", v, want)
	}
	// non-numeric values are skipped
	v, err = IdentStatistic([]string{"abc", "5"})
	if err != nil || v != 5 {
		t.Errorf("v = %v, %v", v, err)
	}
	if _, err := IdentStatistic([]string{"abc", "xyz"}); err == nil {
		t.Error("all-non-numeric accepted")
	}
	if _, err := IdentStatistic(nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestMarkFromStatistic(t *testing.T) {
	a, err := MarkFromStatistic(123456, 1000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 20 {
		t.Fatalf("len = %d", a.Len())
	}
	// quantization: drift within the same bucket maps to the same mark
	// (cross-bucket drift is handled by the judge's τ check, not by F)
	b, _ := MarkFromStatistic(123456+30, 1000, 20)
	if !a.Equal(b) {
		t.Error("within-bucket drift changed the mark")
	}
	// far values map elsewhere (overwhelmingly likely)
	c, _ := MarkFromStatistic(987654321, 1000, 20)
	if a.Equal(c) {
		t.Error("distant statistics collided (unlucky?)")
	}
	// determinism
	d, _ := MarkFromStatistic(123456, 1000, 20)
	if !a.Equal(d) {
		t.Error("F not deterministic")
	}
	if _, err := MarkFromStatistic(1, 0, 20); err == nil {
		t.Error("zero quantum accepted")
	}
	if _, err := MarkFromStatistic(1, 1, 0); err == nil {
		t.Error("zero markLen accepted")
	}
}

// disputeFixture builds an owner's release — identifiers encrypted
// under the owner's key — plus the owner's claim and a judge. Steps
// (1)–(3) read only the identifying column, so the quasi column stays
// unmarked; the detection step runs over core releases in
// dispute_test.go.
type disputeFixture struct {
	disputed *relation.Table // identifiers encrypted
	owner    Claim
	judge    Judge
}

func newDisputeFixture(t testing.TB, rows int) *disputeFixture {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "ssn", Kind: relation.Identifying},
		relation.Column{Name: "zip", Kind: relation.QuasiCategorical},
	)
	original := relation.NewTable(schema)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < rows; i++ {
		ssn := fmt.Sprintf("%03d-%02d-%04d", rng.Intn(899)+1, rng.Intn(89)+10, i)
		if err := original.AppendRow([]string{ssn, fmt.Sprintf("R%dS%d", rng.Intn(3), rng.Intn(3))}); err != nil {
			t.Fatal(err)
		}
	}

	// Owner derives mark from the clear-text statistic (the §5.4 scheme)
	// and encrypts identifiers.
	const quantum = 1e6
	key := crypt.NewWatermarkKeyFromSecret("the-hospital", 8)
	wm, v, err := OwnerMark(original, "ssn", quantum, 20)
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		t.Fatal(err)
	}
	disputed := original.Clone()
	ci, _ := disputed.Schema().Index("ssn")
	for i := 0; i < disputed.NumRows(); i++ {
		disputed.SetCellAt(i, ci, string(cipher.AppendEncryptString(nil, disputed.CellAt(i, ci))))
	}

	return &disputeFixture{
		disputed: disputed,
		owner:    Claim{Claimant: "hospital", V: v, Key: key, Mark: wm},
		judge: Judge{
			IdentCol: "ssn",
			// τ must absorb the sampling drift of the mean under tuple
			// deletion/addition attacks (§5.4): with SSN-scale values
			// (σ ≈ 2.6e8) and 20% deletion the mean drifts by a few
			// million, while a bogus claim is off by ~1e8.
			Tau:           5e7,
			Quantum:       quantum,
			LossThreshold: 0.15,
		},
	}
}

func TestJudgeRejectsWrongStatistic(t *testing.T) {
	f := newDisputeFixture(t, 1000)
	claim := f.owner
	claim.V += f.judge.Tau * 10 // way off
	// the claimed mark must still be F(V) for the claim to be coherent
	wm, _ := MarkFromStatistic(claim.V, f.judge.Quantum, 20)
	claim.Mark = wm
	verdicts, err := f.judge.Commit(context.Background(), f.disputed, []Claim{claim})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0].Valid || verdicts[0].StatisticOK {
		t.Errorf("wrong statistic accepted: %+v", verdicts[0])
	}
}

func TestJudgeValidation(t *testing.T) {
	f := newDisputeFixture(t, 100)
	ctx := context.Background()
	j := f.judge
	j.Tau = 0
	if _, err := j.Commit(ctx, f.disputed, nil); err == nil {
		t.Error("zero tau accepted")
	}
	j = f.judge
	j.LossThreshold = 0.5
	if _, err := j.Commit(ctx, f.disputed, nil); err == nil {
		t.Error("loss threshold 0.5 accepted")
	}
	j = f.judge
	j.IdentCol = "missing"
	if _, err := j.Commit(ctx, f.disputed, nil); err == nil {
		t.Error("missing ident column accepted")
	}
}

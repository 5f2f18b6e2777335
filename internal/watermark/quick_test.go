package watermark

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/relation"
)

// Property: any mark roundtrips exactly through embed → detect on a clean
// table, regardless of its bit pattern and duplication factor.
func TestQuickMarkRoundtrip(t *testing.T) {
	f := newFixture(t, 2500, 6)
	marks := 0
	prop := func(raw [3]byte, dupRaw uint8) bool {
		mark, err := bitstr.FromBytes(raw[:], 20)
		if err != nil {
			return false
		}
		params := f.params
		params.Mark = mark
		params.Duplication = int(dupRaw)%6 + 1
		marked := f.tbl.Clone()
		if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, params); err != nil {
			return false
		}
		res, err := detect(marked, "ssn", f.columns, params)
		if err != nil {
			return false
		}
		marks++
		return res.Mark.Equal(mark)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	if marks == 0 {
		t.Fatal("property never exercised")
	}
}

// Property: embedding is content-addressed — permuting physical row order
// does not change what the detector recovers.
func TestQuickRowOrderIndependence(t *testing.T) {
	f := newFixture(t, 3000, 6)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		shuffled := relation.NewTable(marked.Schema())
		for _, i := range rand.New(rand.NewSource(seed)).Perm(marked.NumRows()) {
			if err := shuffled.AppendRow(marked.Row(i)); err != nil {
				return false
			}
		}
		res, err := detect(shuffled, "ssn", f.columns, f.params)
		if err != nil {
			return false
		}
		return res.Mark.Equal(f.params.Mark)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: two different secrets never both detect the same table as
// theirs (the key binds the mark).
func TestQuickKeySeparation(t *testing.T) {
	f := newFixture(t, 3000, 6)
	marked := f.tbl.Clone()
	if _, err := EmbedContext(context.Background(), marked, "ssn", f.columns, f.params); err != nil {
		t.Fatal(err)
	}
	prop := func(secret string) bool {
		if secret == "" {
			return true
		}
		other := f.params
		other.Key = keyFromSecret(secret, f.params.Key.Eta)
		res, err := detect(marked, "ssn", f.columns, other)
		if err != nil {
			return false
		}
		loss, err := MarkLoss(f.params.Mark, res)
		if err != nil {
			return false
		}
		// a wrong key reads noise: at least some mark bits must differ
		return loss > 0.05
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// keyFromSecret abbreviates crypt.NewWatermarkKeyFromSecret.
func keyFromSecret(secret string, eta uint64) crypt.WatermarkKey {
	return crypt.NewWatermarkKeyFromSecret(secret, eta)
}

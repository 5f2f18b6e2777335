package core

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/binning"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// TestAfterBinsMatchRecount is the differential test of the write
// loop's bin accounting: the loop counts each row's bin once, before the
// embed, and derives every output's after-bins from the rows its mark
// selected. The derived bins must equal anonymity.Bins recounted over
// the marked segments the sinks receive, and the before-bins must equal
// a recount of the transformed table, for apply, append and a
// fingerprint fan-out over two encryption keys, with §5.1 boundary
// permutation on and off, for every chunk size and worker count.
func TestAfterBinsMatchRecount(t *testing.T) {
	all := testData(t, 2400)
	base, err := all.Slice(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(2000, 2400)
	if err != nil {
		t.Fatal(err)
	}
	quasi := base.Schema().QuasiColumns()
	trees := ontology.Trees()
	key := crypt.NewWatermarkKeyFromSecret("bin owner", 9)
	// Three recipients share the fleet's encryption key; the fourth has
	// one of its own, so the run transforms twice per segment.
	recipients := []Recipient{
		{ID: "a", Key: crypt.RecipientWatermarkKey("bin owner", "a", 9)},
		{ID: "b", Key: crypt.RecipientWatermarkKey("bin owner", "b", 9)},
		{ID: "c", Key: crypt.NewWatermarkKeyFromSecret("standalone c", 9)},
		{ID: "d", Key: crypt.RecipientWatermarkKey("bin owner", "d", 9)},
	}
	for _, boundary := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			cfg := Config{K: 5, AutoEpsilon: true, Workers: workers}
			if boundary {
				cfg = Config{K: 1, MaxGens: leafMetrics(trees, base), Workers: workers}
			}
			fw, err := New(trees, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := fw.PlanContext(context.Background(), base, key)
			if err != nil {
				t.Fatal(err)
			}
			applied, err := fw.ApplyContext(context.Background(), base, plan, key)
			if err != nil {
				t.Fatal(err)
			}
			if applied.Plan.BoundaryPermutation != boundary {
				t.Fatalf("boundary=%v: effective plan records boundary permutation %v", boundary, applied.Plan.BoundaryPermutation)
			}
			fp := make([]output, len(recipients))
			for i, r := range recipients {
				rp, err := RecipientPlan(plan, r.ID)
				if err != nil {
					t.Fatal(err)
				}
				fp[i] = output{plan: rp, key: r.Key, recipient: r.ID}
			}
			runs := []struct {
				name      string
				tbl       *relation.Table
				outs      []output
				appending bool
			}{
				{"apply", base, []output{{plan: plan, key: key}}, false},
				{"append", delta, []output{{plan: &applied.Plan, key: key}}, true},
				{"fingerprint", base, fp, false},
			}
			for _, run := range runs {
				wantBefore := recountTransformed(t, fw, run.tbl, plan)
				for _, chunk := range []int{7, 300, 5000} {
					what := fmt.Sprintf("boundary=%v workers=%d %s chunk=%d", boundary, workers, run.name, chunk)
					counted := make([]anonymity.Counter, len(run.outs))
					outs := append([]output(nil), run.outs...)
					for i := range outs {
						outs[i].sink = func(seg *relation.Table) error { return counted[i].Add(seg, quasi) }
					}
					p, err := fw.write(context.Background(), run.tbl.Segments(chunk), outs, run.appending)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if diff := binsDiff(p.before, wantBefore); diff != "" {
						t.Errorf("%s: before-bins differ from a recount of the transformed table: %s", what, diff)
					}
					moved := false
					for i := range outs {
						if diff := binsDiff(p.after[i], counted[i].Bins()); diff != "" {
							t.Errorf("%s output %d: derived after-bins differ from the recount: %s", what, i, diff)
						}
						moved = moved || !reflect.DeepEqual(p.after[i], p.before)
					}
					if !moved {
						t.Errorf("%s: no output's marking moved a row between bins; the difference is untested", what)
					}
				}
			}
		}
	}
}

// binsDiff describes the first bin, in key order, whose size differs
// between the derived and the recounted bin maps ("" when they are
// equal). A bin absent from a map is reported as such, not as 0.
func binsDiff(derived, recount map[string]int) string {
	keys := sortedKeys(derived)
	for key := range recount {
		if _, ok := derived[key]; !ok {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		d, dok := derived[key]
		r, rok := recount[key]
		if d != r || dok != rok {
			return fmt.Sprintf("bin %q: derived %d (present %v), recount %d (present %v)",
				strings.ReplaceAll(key, "\x1f", "|"), d, dok, r, rok)
		}
	}
	return ""
}

// recountTransformed returns the bins of tbl after the plan's
// suppression and transform, counted over the whole table.
func recountTransformed(t *testing.T, fw *Framework, tbl *relation.Table, plan *Plan) map[string]int {
	t.Helper()
	work := tbl.Clone()
	if _, err := binning.Suppress(work, fw.trees, plan.Suppress); err != nil {
		t.Fatal(err)
	}
	columns, err := fw.SpecsFromProvenance(plan.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	ultiGens := make(map[string]dht.GenSet, len(columns))
	for col, spec := range columns {
		ultiGens[col] = spec.UltiGen
	}
	// The quasi cells do not depend on the encryption key.
	cipher, err := crypt.NewCipher(crypt.NewWatermarkKeyFromSecret("any", 9).Enc)
	if err != nil {
		t.Fatal(err)
	}
	binned, err := binning.TransformContext(context.Background(), work, ultiGens, 0, cipher, 1)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := anonymity.Bins(binned, tbl.Schema().QuasiColumns())
	if err != nil {
		t.Fatal(err)
	}
	return bins
}

// TestInMemoryFormsKeepInput: the write loop rewrites the segments it
// owns in place, so the in-memory forms hand it a copy; the caller's
// table must come back byte-identical from Protect, Apply, Append and
// Fingerprint, with and without a suppression record to replay.
func TestInMemoryFormsKeepInput(t *testing.T) {
	all := testData(t, 1800)
	base, err := all.Slice(0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(1500, 1800)
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("input owner", 25)
	recipients := []Recipient{
		{ID: "a", Key: crypt.RecipientWatermarkKey("input owner", "a", 25)},
		{ID: "b", Key: crypt.NewWatermarkKeyFromSecret("standalone b", 25)},
	}
	for _, aggressive := range []bool{false, true} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Aggressive: aggressive})
		if err != nil {
			t.Fatal(err)
		}
		wantBase, wantDelta := tableCSV(t, base), tableCSV(t, delta)
		check := func(what string) {
			t.Helper()
			if !bytes.Equal(tableCSV(t, base), wantBase) || !bytes.Equal(tableCSV(t, delta), wantDelta) {
				t.Fatalf("aggressive=%v: %s changed its input table", aggressive, what)
			}
		}
		prot, err := fw.ProtectContext(context.Background(), base, key)
		if err != nil {
			t.Fatal(err)
		}
		check("ProtectContext")
		if aggressive && len(prot.Plan.Suppress) == 0 {
			t.Fatal("the aggressive plan records no suppression; the replay is untested")
		}
		if _, err := fw.ApplyContext(context.Background(), base, &prot.Plan, key); err != nil {
			t.Fatal(err)
		}
		check("ApplyContext")
		if _, err := fw.AppendContext(context.Background(), delta, &prot.Plan, key); err != nil {
			t.Fatal(err)
		}
		check("AppendContext")
		if _, err := fw.FingerprintContext(context.Background(), base, recipients); err != nil {
			t.Fatal(err)
		}
		check("FingerprintContext")
	}
}

// TestApplyAcceptsEmptiedBin pins the k rule over the published bins: a
// K=1 plan whose marking moves the only row of a bin elsewhere empties
// that bin, and an emptied bin is not published, so the apply is
// accepted. The Figure 14 comparison still counts the emptied bin below
// k, and the bin record holds no empty bin.
func TestApplyAcceptsEmptiedBin(t *testing.T) {
	tbl := testData(t, 300)
	fw, err := New(ontology.Trees(), Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("emptied owner", 2)
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BoundaryPermutation {
		t.Fatal("the fixture plans boundary permutation, which skips the k rule")
	}
	prot, err := fw.ApplyContext(context.Background(), tbl, plan, key)
	if err != nil {
		t.Fatalf("ApplyContext refused a K=1 release whose marking emptied a bin: %v", err)
	}
	if prot.BinStats.BelowK == 0 {
		t.Fatal("marking emptied no bin; the fixture does not reach the case")
	}
	want, err := anonymity.Bins(prot.Table, tbl.Schema().QuasiColumns())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prot.Plan.Bins, want) {
		t.Error("the effective plan's bin record differs from the published table's bins")
	}
}

// TestDecryptMergesNonCanonicalTokens: unpadded base64 leaves unused
// bits in a token's last character, and the decoder ignores them, so
// two spellings of one token decrypt to one plaintext. Decryption is
// therefore not injective, and DecryptIdentifiers must merge the two
// into one dictionary entry.
func TestDecryptMergesNonCanonicalTokens(t *testing.T) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
	fw := testFramework(t)
	key := crypt.NewWatermarkKeyFromSecret("token owner", 25)
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		t.Fatal(err)
	}
	const ssn = "123-45-6789"
	token := string(cipher.AppendEncryptString(nil, ssn))
	// 11 plaintext bytes seal to 43 bytes: the last character carries
	// 2 bits and 4 unused ones.
	if (16+len(ssn)+16)%3 != 1 {
		t.Fatal("the token's last character carries no unused bits")
	}
	last := strings.IndexByte(alphabet, token[len(token)-1])
	other := token[:len(token)-1] + string(alphabet[last^1])
	a, errA := base64.RawURLEncoding.DecodeString(token)
	b, errB := base64.RawURLEncoding.DecodeString(other)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("the two spellings do not decode alike: %v, %v", errA, errB)
	}
	tbl := relation.NewTable(ontology.Schema())
	for _, tok := range []string{token, other, token} {
		if err := tbl.AppendRow([]string{tok, "30", "10001", "d", "s", "p"}); err != nil {
			t.Fatal(err)
		}
	}
	clear, err := fw.DecryptIdentifiers(context.Background(), tbl, ontology.ColSSN, key)
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := clear.Schema().Index(ontology.ColSSN)
	if got := clear.DictValues(ci); !reflect.DeepEqual(got, []string{ssn}) {
		t.Errorf("decrypted dictionary = %q, want the one plaintext %q", got, ssn)
	}
	for row := range clear.NumRows() {
		if v := clear.CellAt(row, ci); v != ssn {
			t.Errorf("row %d decrypts to %q, want %q", row, v, ssn)
		}
	}
}

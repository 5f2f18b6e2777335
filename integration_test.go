// Cross-module integration tests: the full owner workflow over real CSV
// files and provenance JSON, exactly as an adopter would run it.
package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/attack"
	"repro/internal/bitstr"
	"repro/internal/experiments"
	"repro/medshield"
)

// bitsFromString adapts the provenance mark encoding for bench helpers.
func bitsFromString(s string) (bitstr.Bits, error) { return bitstr.FromString(s) }

func TestFullWorkflowThroughFiles(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.csv")
	protectedPath := filepath.Join(dir, "protected.csv")
	provPath := filepath.Join(dir, "prov.json")

	// 1. The hospital exports its records.
	original, err := medshield.GenerateSyntheticData(6000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := medshield.SaveCSVFile(dataPath, original); err != nil {
		t.Fatal(err)
	}

	// 2. Protection run: load, protect, persist table + provenance.
	loaded, err := medshield.LoadCSVFile(dataPath, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	key := medshield.NewKey("integration secret", 50)
	p, err := fw.ProtectContext(context.Background(), loaded, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := medshield.SaveCSVFile(protectedPath, p.Table); err != nil {
		t.Fatal(err)
	}
	provJSON, err := json.Marshal(p.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(provPath, provJSON, 0o600); err != nil {
		t.Fatal(err)
	}

	// 3. Privacy holds on the shipped file.
	shipped, err := medshield.LoadCSVFile(protectedPath, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := anonymity.SatisfiesK(shipped, shipped.Schema().QuasiColumns(), 20)
	if err != nil || !ok {
		t.Fatal("shipped file violates k-anonymity")
	}

	// 4. A pirated copy surfaces after attacks; the owner re-loads the
	// provenance from disk and proves the mark.
	pirated := shipped.Clone()
	rng := rand.New(rand.NewSource(17))
	if _, err := attack.DeleteRandom(pirated, 0.25, rng); err != nil {
		t.Fatal(err)
	}
	var prov medshield.Provenance
	if err := json.Unmarshal(mustRead(t, provPath), &prov); err != nil {
		t.Fatal(err)
	}
	det, err := fw.DetectContext(context.Background(), pirated, prov, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Fatalf("mark not found in pirated copy (loss %v)", det.MarkLoss)
	}

	// 5. And a party without the secret cannot claim it.
	impostor := medshield.NewKey("impostor", 50)
	verdicts, err := fw.DisputeContext(context.Background(), pirated, prov, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0].Valid {
		t.Fatalf("owner dispute failed: %+v", verdicts[0])
	}
	badDet, err := fw.DetectContext(context.Background(), pirated, prov, impostor)
	if err != nil {
		t.Fatal(err)
	}
	if badDet.Match {
		t.Error("impostor key matched")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestExperimentsRenderAll(t *testing.T) {
	// The experiment suite must run end-to-end at reduced scale and
	// render without errors — this is what cmd/experiments does.
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	if len(experiments.Runners) != 12 {
		t.Fatalf("experiments = %d, want 12 (E1..E9 + three extensions)", len(experiments.Runners))
	}
	var buf bytes.Buffer
	for _, r := range experiments.Runners {
		tbl, err := r.Run(experiments.Config{Rows: 3000, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

// TestPipelineGoldenOutput pins the byte-exact 20k-row pipeline output:
// the protected CSV, the recovered mark and the input fixture itself.
// The hashes were recorded against the row-store implementation, so the
// columnar engine (and any future representation change) is held to
// byte-identical Protect/Detect behaviour. If a PR intentionally changes
// pipeline semantics (ontology, datagen, crypto, embedding), update the
// constants deliberately in that PR — never to paper over an accidental
// diff.
func TestPipelineGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row Protect in -short mode")
	}
	const (
		wantInputSHA     = "1f1de1cfc0367fe64dd093b4e0eedfc1de0741db17d20a2b947ded0ba372a4dd"
		wantProtectedSHA = "3244ae1da3fe2d7629f58ae7e39694efb6d796a2e39264ede4d47598681275df"
		wantMark         = "01001001001001110100"
	)
	tbl, err := medshield.GenerateSyntheticData(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	if err := tbl.WriteCSV(&in); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(in.String()))); got != wantInputSHA {
		t.Fatalf("input fixture hash = %s, want %s", got, wantInputSHA)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	key := medshield.NewKey("bench", 75)
	p, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := p.Table.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != wantProtectedSHA {
		t.Fatalf("protected table hash = %s, want %s", got, wantProtectedSHA)
	}
	det, err := fw.DetectContext(context.Background(), p.Table, p.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Result.Mark.String(); got != wantMark || det.MarkLoss != 0 {
		t.Fatalf("detected mark = %s (loss %v), want %s (loss 0)", got, det.MarkLoss, wantMark)
	}
}

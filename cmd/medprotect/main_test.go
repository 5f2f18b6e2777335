package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/medshield"
)

// The subcommand functions are exercised directly (they are plain
// functions over flag slices), covering the full operator workflow:
// gen → protect → attack → detect → dispute → trees.

func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	protected := filepath.Join(dir, "protected.csv")
	prov := filepath.Join(dir, "prov.json")
	attacked := filepath.Join(dir, "attacked.csv")

	if err := cmdGen([]string{"-rows", "3000", "-seed", "5", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := os.Stat(data); err != nil {
		t.Fatalf("gen wrote nothing: %v", err)
	}

	if err := cmdProtect([]string{
		"-in", data, "-k", "15", "-eta", "40",
		"-secret", "cli test secret", "-out", protected, "-prov", prov,
	}); err != nil {
		t.Fatalf("protect: %v", err)
	}
	tbl, err := medshield.LoadCSVFile(protected, medshield.BuiltinSchema())
	if err != nil {
		t.Fatalf("protected CSV unreadable: %v", err)
	}
	if tbl.NumRows() != 3000 {
		t.Errorf("protected rows = %d", tbl.NumRows())
	}

	if err := cmdAttack([]string{
		"-in", protected, "-out", attacked, "-prov", prov,
		"-kind", "rangedelete", "-frac", "0.3", "-seed", "2",
	}); err != nil {
		t.Fatalf("attack: %v", err)
	}
	att, err := medshield.LoadCSVFile(attacked, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	if att.NumRows() >= 3000 {
		t.Errorf("attack deleted nothing: %d rows", att.NumRows())
	}

	if err := cmdDetect([]string{
		"-in", attacked, "-prov", prov, "-secret", "cli test secret", "-eta", "40",
	}); err != nil {
		t.Fatalf("detect: %v", err)
	}

	if err := cmdDispute([]string{
		"-in", attacked, "-prov", prov, "-secret", "cli test secret", "-eta", "40",
	}); err != nil {
		t.Fatalf("dispute: %v", err)
	}
}

func TestCLIAttackKinds(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	protected := filepath.Join(dir, "protected.csv")
	prov := filepath.Join(dir, "prov.json")
	if err := cmdGen([]string{"-rows", "1500", "-seed", "9", "-out", data}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProtect([]string{
		"-in", data, "-k", "10", "-eta", "30",
		"-secret", "s", "-out", protected, "-prov", prov,
	}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"alter", "add", "delete", "generalize"} {
		out := filepath.Join(dir, kind+".csv")
		if err := cmdAttack([]string{
			"-in", protected, "-out", out, "-prov", prov,
			"-kind", kind, "-frac", "0.2", "-seed", "3",
		}); err != nil {
			t.Errorf("attack %s: %v", kind, err)
		}
	}
	if err := cmdAttack([]string{
		"-in", protected, "-out", filepath.Join(dir, "x.csv"), "-prov", prov,
		"-kind", "nonsense", "-frac", "0.2",
	}); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown attack kind accepted: %v", err)
	}
}

func TestCLITrees(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trees")
	if err := cmdTrees([]string{"-dir", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("tree files = %d, want 5", len(entries))
	}
	// every dumped tree must parse back
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := medshield.ParseTree(data); err != nil {
			t.Errorf("%s does not round-trip: %v", e.Name(), err)
		}
	}
}

// TestCLIPlanAppend exercises the incremental flow: protect a base with
// -plan, append a delta batch under the saved plan (extending the
// published CSV in place), and detect over the extended table.
func TestCLIPlanAppend(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	deltaCSV := filepath.Join(dir, "delta.csv")
	protected := filepath.Join(dir, "protected.csv")
	prov := filepath.Join(dir, "prov.json")
	plan := filepath.Join(dir, "plan.json")
	deltaOut := filepath.Join(dir, "delta-protected.csv")

	if err := cmdGen([]string{"-rows", "2500", "-seed", "5", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdGen([]string{"-rows", "300", "-seed", "6", "-out", deltaCSV}); err != nil {
		t.Fatalf("gen delta: %v", err)
	}
	if err := cmdProtect([]string{
		"-in", data, "-k", "15", "-eta", "40",
		"-secret", "cli append secret", "-out", protected, "-prov", prov, "-plan", plan,
	}); err != nil {
		t.Fatalf("protect: %v", err)
	}
	planDoc, err := os.ReadFile(plan)
	if err != nil {
		t.Fatalf("plan file missing: %v", err)
	}
	parsed, err := medshield.ParsePlan(planDoc)
	if err != nil {
		t.Fatalf("plan file invalid: %v", err)
	}
	if parsed.Rows != 2500 || len(parsed.Bins) == 0 {
		t.Fatalf("plan lacks the published bin record: rows=%d bins=%d", parsed.Rows, len(parsed.Bins))
	}

	if err := cmdAppend([]string{
		"-in", deltaCSV, "-plan", plan, "-secret", "cli append secret", "-eta", "40",
		"-out", deltaOut, "-base", protected,
	}); err != nil {
		t.Fatalf("append: %v", err)
	}
	extended, err := medshield.LoadCSVFile(protected, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	if extended.NumRows() != 2800 {
		t.Errorf("extended table rows = %d, want 2800", extended.NumRows())
	}
	advanced, err := os.ReadFile(plan)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := medshield.ParsePlan(advanced)
	if err != nil {
		t.Fatalf("advanced plan invalid: %v", err)
	}
	if reparsed.Rows != 2800 {
		t.Errorf("advanced plan rows = %d, want 2800", reparsed.Rows)
	}

	// The mark must hold over the extended published table.
	if err := cmdDetect([]string{
		"-in", protected, "-prov", prov, "-secret", "cli append secret", "-eta", "40",
	}); err != nil {
		t.Fatalf("detect over extended table: %v", err)
	}

	// A base that disagrees with the plan's published row count (here: a
	// stale plan against the already-extended base) must be refused —
	// the guard against double-appending after a partial failure.
	stale := filepath.Join(dir, "stale-plan.json")
	if err := os.WriteFile(stale, planDoc, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cmdAppend([]string{
		"-in", deltaCSV, "-plan", stale, "-secret", "cli append secret", "-eta", "40",
		"-out", deltaOut, "-base", protected,
	}); err == nil || !strings.Contains(err.Error(), "out of sync") {
		t.Errorf("stale plan against extended base: %v, want out-of-sync refusal", err)
	}

	// The search-only plan subcommand writes a valid, bin-record-free plan.
	dry := filepath.Join(dir, "dry.json")
	if err := cmdPlan([]string{
		"-in", data, "-k", "15", "-eta", "40", "-secret", "cli append secret", "-plan", dry,
	}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	dryDoc, err := os.ReadFile(dry)
	if err != nil {
		t.Fatal(err)
	}
	dryPlan, err := medshield.ParsePlan(dryDoc)
	if err != nil {
		t.Fatalf("dry plan invalid: %v", err)
	}
	if len(dryPlan.Bins) != 0 {
		t.Error("search-only plan should carry no bin record")
	}
	// Appending under an unapplied plan must refuse.
	if err := cmdAppend([]string{
		"-in", deltaCSV, "-plan", dry, "-secret", "cli append secret", "-eta", "40",
		"-out", deltaOut,
	}); err == nil {
		t.Error("append under a search-only plan accepted")
	}
}

// TestCLIApplyStream checks medprotect's apply and append, which run
// the segment loops, against the library's in-memory forms: the
// protected table, the filled and advanced plans and the extended base
// must be byte-identical to Apply/Append written by SaveCSVFile and
// AppendTable.
func TestCLIApplyStream(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	deltaCSV := filepath.Join(dir, "delta.csv")
	if err := cmdGen([]string{"-rows", "2000", "-seed", "7", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdGen([]string{"-rows", "250", "-seed", "8", "-out", deltaCSV}); err != nil {
		t.Fatalf("gen delta: %v", err)
	}
	dry := filepath.Join(dir, "dry.json")
	if err := cmdPlan([]string{
		"-in", data, "-k", "15", "-eta", "40", "-secret", "cli apply secret", "-plan", dry,
	}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	copyFile := func(dst, src string) {
		t.Helper()
		if err := os.WriteFile(dst, mustRead(t, src), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	mustEqual := func(what, got, want string) {
		t.Helper()
		if string(mustRead(t, got)) != string(mustRead(t, want)) {
			t.Errorf("%s: medprotect output differs from the in-memory form (%s vs %s)", what, got, want)
		}
	}

	// The in-memory reference: Apply then Append under the dry plan.
	plan, err := medshield.ParsePlan(mustRead(t, dry))
	if err != nil {
		t.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: plan.K})
	if err != nil {
		t.Fatal(err)
	}
	key := medshield.NewKey("cli apply secret", 40)
	tbl, err := medshield.LoadCSVFile(data, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	prot, err := fw.ApplyContext(context.Background(), tbl, plan, key)
	if err != nil {
		t.Fatal(err)
	}
	refOut := filepath.Join(dir, "ref-protected.csv")
	refFilled := filepath.Join(dir, "ref-filled.json")
	if err := medshield.SaveCSVFile(refOut, prot.Table); err != nil {
		t.Fatal(err)
	}
	if err := writePlan(refFilled, &prot.Plan); err != nil {
		t.Fatal(err)
	}
	delta, err := medshield.LoadCSVFile(deltaCSV, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	app, err := fw.AppendContext(context.Background(), delta, &prot.Plan, key)
	if err != nil {
		t.Fatal(err)
	}
	refDelta := filepath.Join(dir, "ref-delta.csv")
	refAdvanced := filepath.Join(dir, "ref-advanced.json")
	refBase := filepath.Join(dir, "ref-base.csv")
	if err := medshield.SaveCSVFile(refDelta, app.Table); err != nil {
		t.Fatal(err)
	}
	if err := writePlan(refAdvanced, &app.Plan); err != nil {
		t.Fatal(err)
	}
	if err := prot.Table.AppendTable(app.Table); err != nil {
		t.Fatal(err)
	}
	if err := medshield.SaveCSVFile(refBase, prot.Table); err != nil {
		t.Fatal(err)
	}

	// apply over a copy of the dry plan, filled in place.
	planPath := filepath.Join(dir, "plan.json")
	copyFile(planPath, dry)
	out := filepath.Join(dir, "protected.csv")
	prov := filepath.Join(dir, "prov.json")
	if err := cmdApply([]string{
		"-in", data, "-plan", planPath, "-secret", "cli apply secret", "-eta", "40",
		"-out", out, "-prov", prov, "-chunk", "256",
	}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	mustEqual("protected table", out, refOut)
	mustEqual("filled plan", planPath, refFilled)
	var provDoc map[string]any
	if err := json.Unmarshal(mustRead(t, prov), &provDoc); err != nil {
		t.Fatalf("apply -prov wrote invalid JSON: %v", err)
	}

	// append, extending the published table in place.
	deltaOut := filepath.Join(dir, "delta-protected.csv")
	if err := cmdAppend([]string{
		"-in", deltaCSV, "-plan", planPath, "-secret", "cli apply secret", "-eta", "40",
		"-out", deltaOut, "-base", out, "-chunk", "64",
	}); err != nil {
		t.Fatalf("append: %v", err)
	}
	mustEqual("protected delta", deltaOut, refDelta)
	mustEqual("advanced plan", planPath, refAdvanced)
	mustEqual("extended base", out, refBase)

	// The out-of-sync guard: a stale plan (the dry one claims 2000
	// published rows, none appended) is refused.
	copyFile(planPath, dry)
	if err := cmdAppend([]string{
		"-in", deltaCSV, "-plan", planPath, "-secret", "cli apply secret", "-eta", "40",
		"-out", deltaOut, "-base", out,
	}); err == nil || !strings.Contains(err.Error(), "out of sync") {
		t.Errorf("append with stale plan: %v, want out-of-sync refusal", err)
	}

	// Config validation surfaces through the CLI: chunk < 1 is rejected.
	if err := cmdApply([]string{
		"-in", data, "-plan", planPath, "-secret", "s", "-out", out, "-chunk", "-3",
	}); err == nil || !strings.Contains(err.Error(), "Chunk") {
		t.Errorf("negative chunk accepted: %v", err)
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

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := cmdProtect([]string{"-in", "nope.csv", "-secret", "s"}); err == nil {
		t.Error("missing input accepted")
	}
	if err := cmdProtect([]string{"-in", "nope.csv"}); err == nil {
		t.Error("missing secret accepted")
	}
	if err := cmdDetect([]string{"-in", "nope.csv"}); err == nil {
		t.Error("detect without secret accepted")
	}
	if err := cmdDispute([]string{"-in", "nope.csv"}); err == nil {
		t.Error("dispute without secret accepted")
	}
	if err := cmdGen([]string{"-rows", "10", "-out", filepath.Join(dir, "no", "dir", "x.csv")}); err == nil {
		t.Error("bad output path accepted")
	}
	// provenance that is not JSON
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "d.csv")
	if err := cmdGen([]string{"-rows", "10", "-out", data}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDetect([]string{"-in", data, "-prov", bad, "-secret", "s"}); err == nil {
		t.Error("corrupt provenance accepted")
	}
}

func TestCLIFingerprintTraceback(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	outdir := filepath.Join(dir, "copies")
	reg := filepath.Join(dir, "recipients.json")
	leaked := filepath.Join(dir, "leaked.csv")

	if err := cmdGen([]string{"-rows", "1500", "-seed", "8", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdFingerprint([]string{
		"-in", data, "-k", "15", "-eta", "25", "-secret", "fleet secret",
		"-recipients", "hospital-a, hospital-b,hospital-c",
		"-outdir", outdir, "-registry", reg,
	}); err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	for _, id := range []string{"hospital-a", "hospital-b", "hospital-c"} {
		if m := permOf(t, filepath.Join(outdir, id+".csv")); m != 0o644 {
			t.Fatalf("copy for %s has mode %v, want 0644", id, m)
		}
	}
	if m := permOf(t, reg); m != 0o600 {
		t.Fatalf("registry mode = %v, want 0600", m)
	}
	noTempFiles(t, outdir)

	// A run that fails after its copies were opened leaves no copy, no
	// temp file and no registry.
	failed := filepath.Join(dir, "failed")
	failedReg := filepath.Join(dir, "failed.json")
	if err := cmdFingerprint([]string{
		"-in", data, "-k", "15", "-eta", "25", "-secret", "fleet secret",
		"-recipients", "hospital-a,hospital-a", "-outdir", failed, "-registry", failedReg,
	}); err == nil {
		t.Fatal("fingerprint with a duplicate recipient succeeded")
	}
	if left, _ := os.ReadDir(failed); len(left) > 0 {
		t.Fatalf("failed fingerprint left %d files in its outdir", len(left))
	}
	if _, err := os.Stat(failedReg); !os.IsNotExist(err) {
		t.Fatalf("failed fingerprint wrote a registry: %v", err)
	}
	store, err := medshield.OpenRegistry(reg)
	if err != nil {
		t.Fatalf("registry unreadable: %v", err)
	}
	if len(store.List()) != 3 {
		t.Fatalf("registry holds %d records", len(store.List()))
	}

	// hospital-b's copy leaks; traceback over the registry names it.
	src, err := os.ReadFile(filepath.Join(outdir, "hospital-b.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(leaked, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdTraceback([]string{"-in", leaked, "-registry", reg, "-secret", "fleet secret"}); err != nil {
		t.Fatalf("traceback: %v", err)
	}

	// Library-level check of the verdict (the CLI prints it).
	cands, skipped, err := medshield.TracebackCandidates(store.List(), "fleet secret")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped records: %v", skipped)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 15})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := medshield.LoadCSVFile(leaked, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	tb, err := fw.TracebackContext(context.Background(), tbl, cands)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Culprit != "hospital-b" {
		t.Fatalf("culprit = %q, want hospital-b", tb.Culprit)
	}

	// Wrong secret is refused before any detection runs.
	if err := cmdTraceback([]string{"-in", leaked, "-registry", reg, "-secret", "wrong"}); err == nil {
		t.Error("wrong master secret accepted")
	}
	// Empty registry is refused.
	if err := cmdTraceback([]string{"-in", leaked, "-registry", filepath.Join(dir, "none.json"), "-secret", "s"}); err == nil {
		t.Error("empty registry accepted")
	}
	// Missing flags are refused.
	if err := cmdFingerprint([]string{"-in", data, "-recipients", "x"}); err == nil {
		t.Error("fingerprint without secret accepted")
	}
	if err := cmdFingerprint([]string{"-in", data, "-secret", "s"}); err == nil {
		t.Error("fingerprint without recipients accepted")
	}
}

// TestLoadProvenance pins the provenance file decode detect, dispute
// and attack run under: a plan file stands in for the provenance it
// extends, and trailing data or an invalid record is ErrBadProvenance.
func TestLoadProvenance(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	prov := filepath.Join(dir, "prov.json")
	plan := filepath.Join(dir, "plan.json")
	if err := cmdGen([]string{"-rows", "2000", "-seed", "7", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdProtect([]string{
		"-in", data, "-k", "15", "-eta", "40", "-secret", "s",
		"-out", filepath.Join(dir, "protected.csv"), "-prov", prov, "-plan", plan,
	}); err != nil {
		t.Fatalf("protect: %v", err)
	}
	want, err := loadProvenance(prov)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loadProvenance(plan); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("plan as provenance: %+v, %v; want %+v", got, err, want)
	}

	doc := mustRead(t, prov)
	var rec map[string]any
	if err := json.Unmarshal(doc, &rec); err != nil {
		t.Fatal(err)
	}
	rec["mark"] = "01x0"
	badMark, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"trailing }": append(slices.Clone(doc), '}'),
		"trailing ]": append(slices.Clone(doc), ']'),
		"bad mark":   badMark,
	} {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, body, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := loadProvenance(path); !errors.Is(err, core.ErrBadProvenance) {
			t.Errorf("%s: %v, want ErrBadProvenance", name, err)
		}
	}
}

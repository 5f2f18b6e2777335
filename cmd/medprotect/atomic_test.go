package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/medshield"
)

func permOf(t *testing.T, path string) os.FileMode {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Mode().Perm()
}

func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) > 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestCLIPlanRewriteAtomic checks that apply rewrites the plan it reads
// atomically: an apply whose input breaks partway through leaves the
// previous plan and protected CSV byte for byte and no temp file, new
// plans and provenance records are 0600, protected CSVs 0644, and a
// rewrite keeps an existing file's mode.
func TestCLIPlanRewriteAtomic(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	plan := filepath.Join(dir, "plan.json")
	out := filepath.Join(dir, "protected.csv")
	prov := filepath.Join(dir, "prov.json")
	const secret = "atomic plan secret"
	if err := cmdGen([]string{"-rows", "1500", "-seed", "4", "-out", data}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlan([]string{"-in", data, "-k", "15", "-secret", secret, "-plan", plan}); err != nil {
		t.Fatal(err)
	}
	if m := permOf(t, plan); m != 0o600 {
		t.Fatalf("new plan mode = %v, want 0600", m)
	}
	apply := func(in string) error {
		return cmdApply([]string{"-in", in, "-plan", plan, "-secret", secret, "-out", out, "-prov", prov, "-chunk", "256"})
	}
	if err := apply(data); err != nil {
		t.Fatal(err)
	}
	if p, o, v := permOf(t, plan), permOf(t, out), permOf(t, prov); p != 0o600 || o != 0o644 || v != 0o600 {
		t.Fatalf("modes after apply: plan %v, csv %v, prov %v; want 0600, 0644, 0600", p, o, v)
	}
	if _, err := medshield.ParsePlan(mustRead(t, plan)); err != nil {
		t.Fatalf("rewritten plan does not parse: %v", err)
	}

	// An input whose row 1001 has a missing field fails after several
	// segments have been written.
	lines := strings.SplitAfter(string(mustRead(t, data)), "\n")
	lines[1001] = "123-45-6789,40\n"
	broken := filepath.Join(dir, "broken.csv")
	if err := os.WriteFile(broken, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	planBefore, outBefore := mustRead(t, plan), mustRead(t, out)
	if err := apply(broken); err == nil {
		t.Fatal("apply over a malformed input succeeded")
	}
	if !bytes.Equal(mustRead(t, plan), planBefore) || !bytes.Equal(mustRead(t, out), outBefore) {
		t.Fatal("a failed apply changed the plan or the published CSV")
	}
	noTempFiles(t, dir)

	// A successful rewrite keeps the modes an operator chose.
	for _, p := range []string{plan, out, prov} {
		if err := os.Chmod(p, 0o640); err != nil {
			t.Fatal(err)
		}
	}
	if err := apply(data); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{plan, out, prov} {
		if m := permOf(t, p); m != 0o640 {
			t.Fatalf("%s mode after rewrite = %v, want the kept 0640", filepath.Base(p), m)
		}
	}
	if !bytes.Equal(mustRead(t, plan), planBefore) {
		t.Fatal("re-applying the same plan to the same table changed the plan bytes")
	}

	// A plan write that cannot land (the target is a directory) leaves
	// no temp file.
	parsed, err := medshield.ParsePlan(planBefore)
	if err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writePlan(blocked, parsed); err == nil {
		t.Fatal("writePlan over a directory succeeded")
	}
	noTempFiles(t, dir)
}

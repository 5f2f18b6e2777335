package medshield_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/medshield"
)

// TestNewConfig: New takes one Config; the effective configuration
// keeps every field given, derives the position salt from NoColumnSalt
// and fills the defaults of the fields left zero.
func TestNewConfig(t *testing.T) {
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{
		K:             20,
		AutoEpsilon:   true,
		Workers:       4,
		MarkBits:      32,
		Duplication:   6,
		Strategy:      medshield.StrategyGreedy,
		IdentCol:      "ssn",
		LossThreshold: 0.1,
		NoColumnSalt:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fw.Config()
	if cfg.K != 20 || !cfg.AutoEpsilon || cfg.Workers != 4 || cfg.MarkBits != 32 ||
		cfg.Duplication != 6 || cfg.Strategy != medshield.StrategyGreedy ||
		cfg.IdentCol != "ssn" || cfg.LossThreshold != 0.1 || !cfg.NoColumnSalt {
		t.Fatalf("config fields not kept: %+v", cfg)
	}
	if cfg.SaltPositionWithColumn {
		t.Fatal("NoColumnSalt must derive SaltPositionWithColumn=false")
	}
	if cfg.Quantum != 1e6 || cfg.Tau != 5e7 || cfg.Chunk != medshield.DefaultChunk {
		t.Fatalf("defaults not applied: Quantum=%v Tau=%v Chunk=%v", cfg.Quantum, cfg.Tau, cfg.Chunk)
	}
}

// TestOptionsValidateEagerly: an invalid Config fails at construction
// with ErrBadConfig, not at the first Protect.
func TestOptionsValidateEagerly(t *testing.T) {
	for name, tc := range map[string]struct {
		trees map[string]*medshield.Tree
		cfg   medshield.Config
	}{
		"K unset":   {medshield.BuiltinTrees(), medshield.Config{}},
		"nil trees": {nil, medshield.Config{K: 5}},
	} {
		if _, err := medshield.New(tc.trees, tc.cfg); !errors.Is(err, medshield.ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", name, err)
		}
	}
}

func TestPublicPipeline(t *testing.T) {
	tbl, err := medshield.GenerateSyntheticData(2500, 5)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 12, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	key := medshield.NewKey("public api secret", 25)
	p, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	det, err := fw.DetectContext(context.Background(), p.Table, p.Provenance, key)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Match {
		t.Errorf("detection failed: loss %v", det.MarkLoss)
	}
}

func TestPublicCSVAndSchema(t *testing.T) {
	tbl, err := medshield.GenerateSyntheticData(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	if err := medshield.SaveCSVFile(path, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := medshield.LoadCSVFile(path, medshield.BuiltinSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tbl.NumRows() {
		t.Errorf("rows = %d, want %d", back.NumRows(), tbl.NumRows())
	}
	if _, err := medshield.LoadCSVFile(filepath.Join(dir, "missing.csv"), medshield.BuiltinSchema()); err == nil {
		t.Error("missing file accepted")
	}
	if err := medshield.SaveCSVFile(filepath.Join(dir, "no-such-dir", "x.csv"), tbl); err == nil {
		t.Error("bad path accepted")
	}
	// corrupt file should not load
	if err := os.WriteFile(path, []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := medshield.LoadCSVFile(path, medshield.BuiltinSchema()); err == nil {
		t.Error("corrupt CSV accepted")
	}
}

func TestPublicCustomSchemaAndTrees(t *testing.T) {
	schema, err := medshield.NewSchema([]medshield.Column{
		{Name: "id", Kind: medshield.Identifying},
		{Name: "city", Kind: medshield.QuasiCategorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := medshield.NewTable(schema)
	if tbl.NumRows() != 0 {
		t.Error("fresh table not empty")
	}
	// tree JSON roundtrip through the public API
	trees := medshield.BuiltinTrees()
	data, err := trees["doctor"].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := medshield.ParseTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Attr() != "doctor" {
		t.Errorf("Attr = %q", tree.Attr())
	}
}

// TestSaveCSVFileAtomic is the error-path test for the temp-file+rename
// write: a failure mid-write must leave the previous file intact, and a
// successful write must not leave temp files behind.
func TestSaveCSVFileAtomic(t *testing.T) {
	tbl, err := medshield.GenerateSyntheticData(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")

	// Seed the destination with known-good content.
	if err := medshield.SaveCSVFile(path, tbl); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("fresh file mode = %v, %v; want 0644", st.Mode().Perm(), err)
	}
	// Re-saving keeps an existing destination's (tighter) mode.
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := medshield.SaveCSVFile(path, tbl); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("re-save mode = %v, %v; want preserved 0600", st.Mode().Perm(), err)
	}
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Error path: make the directory unwritable so the temp file cannot
	// be created; the destination must survive untouched.
	if os.Getuid() != 0 { // chmod-based denial is a no-op for root
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		if err := medshield.SaveCSVFile(path, tbl); err == nil {
			t.Fatal("write into unwritable dir succeeded")
		}
		if err := os.Chmod(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Fatal("failed save corrupted the existing file")
		}
	}

	// Error path: a table whose write fails midway (malformed for the
	// CSV writer is impossible — strings always encode — so exercise the
	// directory-missing path) must not create the destination at all.
	missing := filepath.Join(dir, "no-such-dir", "x.csv")
	if err := medshield.SaveCSVFile(missing, tbl); err == nil {
		t.Fatal("bad path accepted")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}

	// No temp droppings after success or failure.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

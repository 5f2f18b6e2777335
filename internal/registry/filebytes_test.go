package registry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenRecords is a fixed record set over two tenants, in an order the
// store must sort.
func goldenRecords(t *testing.T) []Record {
	t.Helper()
	recs := testRecords(t, "hospital-b", "hospital-a")
	recs[0].CreatedAt = "2026-07-30T12:00:00Z"
	recs[1].TenantID = "tenant-x"
	return recs
}

// TestStoreFileBytes pins the registry file for a fixed record set to
// testdata/registry.golden.json, written by the store before its
// writes moved to internal/atomicfile: MarshalIndent plus a newline,
// mode 0600. A rewrite re-tightens a loosened mode, and the golden file
// loads and re-persists byte for byte.
func TestStoreFileBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "registry.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "recipients.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := goldenRecords(t)
	if err := s.PutAll(recs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("registry file differs from the golden bytes (%d vs %d bytes)", len(got), len(golden))
	}
	want, err := json.MarshalIndent(document{Version: FormatVersion, Recipients: s.List()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatal("registry file is not MarshalIndent plus a newline")
	}
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteIn("tenant-x", "hospital-a"); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("rewritten registry mode = %v, %v; want 0600", st.Mode().Perm(), err)
	}

	reload := filepath.Join(dir, "reload.json")
	if err := os.WriteFile(reload, golden, 0o600); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(reload)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(reload); err != nil || !bytes.Equal(again, golden) {
		t.Fatalf("golden file did not re-persist byte for byte (%v)", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(entries) > 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

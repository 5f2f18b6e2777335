package tenant

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenTenants is a fixed record set touching every field the store
// file carries, in an order the store must sort.
func goldenTenants() []Record {
	return []Record{
		{
			ID: "hospital-b", Name: "Hospital B <east>", Role: RoleMember,
			TokenSHA256: HashToken("mst_00000000000000000000000000000002"),
			Quota:       Quota{RequestsPerMinute: 600, Burst: 20, MaxRowsPerRequest: 50000, MaxActiveJobs: 4},
			Disabled:    true, CreatedAt: "2026-08-07T12:00:00Z", RotatedAt: "2026-08-08T09:30:00Z",
		},
		{ID: "admin", Role: RoleAdmin, TokenSHA256: HashToken("mst_00000000000000000000000000000001")},
		{
			ID: "hospital-a", Name: "Hospital A", Role: RoleMember,
			TokenSHA256: HashToken("mst_00000000000000000000000000000003"),
			Quota:       Quota{RequestsPerMinute: 120}, CreatedAt: "2026-08-07T12:00:00Z",
		},
	}
}

// TestStoreFileBytes pins the store file for a fixed record set to
// testdata/tenants.golden.json, written by the store before its writes
// moved to internal/atomicfile: MarshalIndent plus a newline, mode
// 0600. A rewrite re-tightens a loosened mode, and the golden file
// loads and re-persists byte for byte.
func TestStoreFileBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "tenants.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenTenants() {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("store file differs from the golden bytes:\n%s", got)
	}
	want, err := json.MarshalIndent(document{Version: FormatVersion, Tenants: s.List()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatal("store file is not MarshalIndent plus a newline")
	}
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("admin"); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("rewritten store mode = %v, %v; want 0600", st.Mode().Perm(), err)
	}

	reload := filepath.Join(dir, "reload.json")
	if err := os.WriteFile(reload, golden, 0o600); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(reload)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := s2.Get("hospital-a")
	if err := s2.Put(first); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(reload); err != nil || !bytes.Equal(again, golden) {
		t.Fatalf("golden file did not re-persist byte for byte (%v):\n%s", err, again)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(entries) > 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

package registry

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/tenant"
)

// tenantRecord builds a valid record for (tenantID, recipientID),
// reusing one fingerprinted plan per test binary — the plan's content
// is irrelevant to namespacing, only its validity.
var tenantRecordOnce sync.Once
var tenantRecordBase Record

func tenantRecord(t *testing.T, tenantID, recipientID string) Record {
	t.Helper()
	tenantRecordOnce.Do(func() {
		tenantRecordBase = testRecords(t, "base-recipient")[0]
	})
	rec := tenantRecordBase
	rec.TenantID = tenantID
	rec.RecipientID = recipientID
	// Candidate.ID inside the plan's provenance does not participate in
	// store keying, so renaming the record alone is fine here.
	return rec
}

func TestTenantNamespacing(t *testing.T) {
	s := New()
	a := tenantRecord(t, "tenant-a", "hospital-1")
	b := tenantRecord(t, "tenant-b", "hospital-1") // same recipient ID, different tenant
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	// Same recipient ID under a different tenant must not conflict.
	if err := s.Put(b); err != nil {
		t.Fatalf("cross-tenant Put of the same recipient ID: %v", err)
	}
	if s.recs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.recs.Len())
	}

	got, ok := s.GetIn("tenant-a", "hospital-1")
	if !ok || got.TenantID != "tenant-a" || got.KeyFingerprint != a.KeyFingerprint {
		t.Fatalf("GetIn(tenant-a) = %+v, %v", got, ok)
	}
	if _, ok := s.GetIn("tenant-c", "hospital-1"); ok {
		t.Fatal("GetIn leaked a record to a foreign tenant")
	}

	la := s.ListIn("tenant-a")
	if len(la) != 1 || la[0].TenantID != "tenant-a" {
		t.Fatalf("ListIn(tenant-a) = %+v, want only tenant-a's record", la)
	}
	if all := s.List(); len(all) != 2 {
		t.Fatalf("List (operator view) = %d records, want 2", len(all))
	}

	// DeleteIn only touches its own tenant.
	if had, err := s.DeleteIn("tenant-b", "hospital-1"); err != nil || !had {
		t.Fatalf("DeleteIn(tenant-b) = %v, %v", had, err)
	}
	if _, ok := s.GetIn("tenant-a", "hospital-1"); !ok {
		t.Fatal("DeleteIn(tenant-b) removed tenant-a's record")
	}
}

func TestDefaultTenantCompat(t *testing.T) {
	s := New()
	rec := tenantRecord(t, "", "legacy") // no tenant: the CLI path
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	// The tenant-less accessors and the default-tenant accessors see the
	// same record.
	if _, ok := s.GetIn(tenant.DefaultID, "legacy"); !ok {
		t.Fatal("Get missed the default-tenant record")
	}
	if _, ok := s.GetIn(tenant.DefaultID, "legacy"); !ok {
		t.Fatal("GetIn(default) missed the tenant-less record")
	}
	if got := s.ListIn(""); len(got) != 1 || got[0].TenantID != tenant.DefaultID {
		t.Fatalf("ListIn(\"\") = %+v, want the normalized default record", got)
	}
}

func TestOpenMigratesTenantlessRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tenantRecord(t, "", "old-recipient")); err != nil {
		t.Fatal(err)
	}
	// Strip the tenant_id field from the persisted file to simulate a
	// pre-multi-tenant registry.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.ReplaceAll(string(data), `"tenant_id": "default",`, "")
	if stripped == string(data) {
		t.Fatal("fixture did not contain a tenant_id to strip")
	}
	if err := os.WriteFile(path, []byte(stripped), 0o600); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("pre-tenant registry no longer loads: %v", err)
	}
	got, ok := s2.GetIn(tenant.DefaultID, "old-recipient")
	if !ok || got.TenantID != tenant.DefaultID {
		t.Fatalf("migrated record = %+v, %v; want default tenant", got, ok)
	}
}

func TestValidateRejectsNULInIDs(t *testing.T) {
	rec := tenantRecord(t, "a\x00b", "r")
	if err := rec.Validate(); err == nil {
		t.Fatal("NUL in tenant ID accepted")
	}
	rec = tenantRecord(t, "a", "r\x00s")
	if err := rec.Validate(); err == nil {
		t.Fatal("NUL in recipient ID accepted")
	}
}

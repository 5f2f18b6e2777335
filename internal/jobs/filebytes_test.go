package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenJobs is a fixed record set touching every field the store file
// carries, in an order the store must sort.
func goldenJobs() []Job {
	at := func(min int) time.Time { return time.Date(2026, 8, 1, 12, min, 0, 0, time.UTC) }
	return []Job{
		{
			ID: "j-0002", Kind: "fingerprint", TenantID: "hospital-b", State: StateSucceeded,
			IdempotencyKey: "nightly-7", Request: json.RawMessage(`{"k":20,"secret":"s"}`),
			Result: json.RawMessage(`{"rows":600}`), Attempts: 1, MaxAttempts: 3,
			CreatedAt: at(1), StartedAt: at(2), FinishedAt: at(3),
			Progress: Progress{Stage: "apply", Done: 600, Total: 600},
			Webhook:  "https://example.invalid/hook",
			Deliveries: []Delivery{
				{Attempt: 1, At: at(4), Status: 502},
				{Attempt: 2, At: at(5), Status: 200, OK: true},
			},
			WebhookOK: true,
		},
		{
			ID: "j-0001", Kind: "protect", TenantID: "default", State: StateQueued,
			Request: json.RawMessage(`{"k":15}`), Error: "worker lost <&>", ErrorCode: "internal",
			Attempts: 2, MaxAttempts: 5, NotBefore: at(9), CreatedAt: at(1),
		},
		{ID: "j-0000", Kind: "plan", TenantID: "hospital-a", State: StateDead, Attempts: 3, MaxAttempts: 3, CreatedAt: at(0)},
	}
}

// TestStoreFileBytes pins the store file for a fixed record set to
// testdata/jobs.golden.json, written by the store before its writes
// moved to internal/atomicfile: MarshalIndent plus a newline, mode
// 0600. A rewrite re-tightens a loosened mode, and the golden file
// loads and re-persists byte for byte.
func TestStoreFileBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "jobs.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range goldenJobs() {
		if err := s.Put(j); err != nil {
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
	want, err := json.MarshalIndent(document{Version: FormatVersion, Jobs: s.List()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatal("store file is not MarshalIndent plus a newline")
	}
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("j-0000"); err != nil {
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
	first, _ := s2.Get("j-0001")
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

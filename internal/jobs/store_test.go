package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleJob(id string, created time.Time) Job {
	return Job{
		ID:          id,
		Kind:        "protect",
		State:       StateQueued,
		MaxAttempts: 3,
		CreatedAt:   created,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	j1 := sampleJob("j-aaaa", base.Add(time.Minute))
	j1.IdempotencyKey = "k1"
	j1.Request = []byte(`{"table":"x"}`)
	j2 := sampleJob("j-bbbb", base)
	j2.State = StateSucceeded
	j2.Result = []byte(`{"rows":5}`)
	j2.FinishedAt = base.Add(time.Hour)
	j2.Deliveries = []Delivery{{Attempt: 1, At: base, Status: 200, OK: true}}
	j2.WebhookOK = true
	for _, j := range []Job{j1, j2} {
		if err := s.Put(j); err != nil {
			t.Fatal(err)
		}
	}

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("store file mode = %v, want 0600 (requests embed secrets)", info.Mode().Perm())
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d jobs, want 2", re.Len())
	}
	got, ok := re.Get("j-aaaa")
	if !ok || got.IdempotencyKey != "k1" {
		t.Fatalf("j-aaaa round-trip mismatch: %+v", got)
	}
	// Persisting re-indents embedded raw JSON; compare compacted.
	var req bytes.Buffer
	if err := json.Compact(&req, got.Request); err != nil {
		t.Fatal(err)
	}
	if req.String() != `{"table":"x"}` {
		t.Fatalf("request round-trip = %s", req.String())
	}
	got2, _ := re.Get("j-bbbb")
	if got2.State != StateSucceeded || !got2.WebhookOK || len(got2.Deliveries) != 1 {
		t.Fatalf("j-bbbb round-trip mismatch: %+v", got2)
	}
	// List is oldest-first (recovery enqueue order).
	list := re.List()
	if list[0].ID != "j-bbbb" || list[1].ID != "j-aaaa" {
		t.Fatalf("list order = [%s %s], want oldest first", list[0].ID, list[1].ID)
	}
}

func TestStoreVersionGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(`{"jobs_version": 99, "jobs": []}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestStoreRejectsUnknownFieldsAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"jobs_version": 1, "jobs": [], "surprise": true}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(unknown); err == nil {
		t.Fatal("unknown top-level field accepted")
	}

	dup := filepath.Join(dir, "dup.json")
	doc := `{"jobs_version": 1, "jobs": [
		{"id":"j-1","kind":"protect","state":"queued","attempts":0,"max_attempts":3,"created_at":"2026-08-07T09:00:00Z"},
		{"id":"j-1","kind":"protect","state":"queued","attempts":0,"max_attempts":3,"created_at":"2026-08-07T09:00:00Z"}
	]}`
	if err := os.WriteFile(dup, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate job IDs accepted: %v", err)
	}
}

func TestStoreMissingFileAndInMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Path() != path {
		t.Fatalf("fresh store: len=%d path=%q", s.Len(), s.Path())
	}

	mem := NewStore()
	if err := mem.Put(sampleJob("j-mem", time.Now())); err != nil {
		t.Fatal(err)
	}
	if mem.Path() != "" {
		t.Fatal("in-memory store has a path")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Open created a file before any Put")
	}
}

func TestStorePutValidates(t *testing.T) {
	s := NewStore()
	bad := sampleJob("", time.Now())
	if err := s.Put(bad); err == nil {
		t.Fatal("job without ID accepted")
	}
	bad = sampleJob("j-x", time.Now())
	bad.State = "limbo"
	if err := s.Put(bad); err == nil {
		t.Fatal("job with invalid state accepted")
	}
}

// BenchmarkJobStorePut times one Put of a small queued job into a file
// store that retains 1, 10 or 50 finished jobs whose results are about
// 1.5 MiB each — the job store's cost on every state transition as the
// retained set grows. The retained set is written as one document and
// opened, so setup does not pay the per-Put cost it measures.
func BenchmarkJobStorePut(b *testing.B) {
	base := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	result, err := json.Marshal(map[string]string{"csv": strings.Repeat("123-45-6789,42,47906,dr-a,flu,rest\n", 1536*1024/36)})
	if err != nil {
		b.Fatal(err)
	}
	for _, retained := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			doc := document{Version: FormatVersion}
			for i := 0; i < retained; i++ {
				j := sampleJob(fmt.Sprintf("j-done-%03d", i), base.Add(time.Duration(i)*time.Second))
				j.State, j.Attempts, j.FinishedAt, j.Result = StateSucceeded, 1, base.Add(time.Hour), result
				doc.Jobs = append(doc.Jobs, j)
			}
			data, err := json.Marshal(doc)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "jobs.json")
			if err := os.WriteFile(path, data, 0o600); err != nil {
				b.Fatal(err)
			}
			s, err := Open(path)
			if err != nil {
				b.Fatal(err)
			}
			j := sampleJob("j-live", base.Add(2*time.Hour))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Attempts = i % 2
				if err := s.Put(j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

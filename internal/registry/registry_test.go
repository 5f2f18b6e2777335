package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/ontology"
	"repro/internal/tenant"
)

const testSecret = "registry master secret"

// testRecords fingerprints a small table for the given recipients and
// returns their registry records.
func testRecords(t *testing.T, ids ...string) []Record {
	t.Helper()
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := datagen.Generate(datagen.Config{Rows: 600, Seed: 3, Correlate: true, ZipfS: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	recipients := make([]core.Recipient, len(ids))
	for i, id := range ids {
		recipients[i] = core.Recipient{ID: id, Key: crypt.RecipientWatermarkKey(testSecret, id, 10)}
	}
	results, err := fw.FingerprintContext(context.Background(), tbl, recipients)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, len(results))
	for i, r := range results {
		recs[i] = RecordOf(r.RecipientID, recipients[i].Key, r.Protected.Plan)
	}
	return recs
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, "hospital-a", "hospital-b")
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.recs.Len() != 2 {
		t.Fatalf("len = %d", s.recs.Len())
	}

	// Reopen from disk: same records, sorted by ID.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	list := s2.List()
	if len(list) != 2 || list[0].RecipientID != "hospital-a" || list[1].RecipientID != "hospital-b" {
		t.Fatalf("reopened list: %+v", list)
	}
	got, ok := s2.GetIn(tenant.DefaultID, "hospital-b")
	if !ok {
		t.Fatal("hospital-b missing after reopen")
	}
	if got.Mark != recs[1].Mark || got.KeyFingerprint != recs[1].KeyFingerprint {
		t.Error("record fields did not round-trip")
	}
	if err := got.Plan.Validate(); err != nil {
		t.Errorf("reloaded plan invalid: %v", err)
	}

	// Delete persists too.
	if had, err := s2.DeleteIn(tenant.DefaultID, "hospital-a"); err != nil || !had {
		t.Fatalf("delete: had=%v err=%v", had, err)
	}
	if had, err := s2.DeleteIn(tenant.DefaultID, "hospital-a"); err != nil || had {
		t.Fatalf("double delete: had=%v err=%v", had, err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s3.recs.Len() != 1 {
		t.Fatalf("len after delete+reopen = %d", s3.recs.Len())
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.recs.Len() != 0 {
		t.Fatal("missing file should open empty")
	}
}

func TestInMemoryStoreNeverPersists(t *testing.T) {
	s := New()
	recs := testRecords(t, "a")
	if err := s.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if s.recs.Path() != "" || s.recs.Len() != 1 {
		t.Fatalf("in-memory store: path=%q len=%d", s.recs.Path(), s.recs.Len())
	}
}

func TestOpenRejectsBadDocuments(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"version":  `{"registry_version": 99, "recipients": []}`,
		"unknown":  `{"registry_version": 1, "recipients": [], "extra": true}`,
		"trailing": `{"registry_version": 1, "recipients": []}{"more": 1}`,
		"garbage":  `not json`,
	}
	for name, doc := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%s: bad document accepted", name)
		}
	}
}

func TestPutRejectsInvalidRecords(t *testing.T) {
	s := New()
	recs := testRecords(t, "a")
	bad := recs[0]
	bad.RecipientID = ""
	if err := s.Put(bad); err == nil {
		t.Error("empty recipient ID accepted")
	}
	bad = recs[0]
	bad.Mark = strings.Repeat("1", len(bad.Mark))
	if err := s.Put(bad); err == nil {
		t.Error("mark/plan mismatch accepted")
	}
	bad = recs[0]
	bad.KeyFingerprint = ""
	if err := s.Put(bad); err == nil {
		t.Error("empty fingerprint accepted")
	}
	if s.recs.Len() != 0 {
		t.Errorf("invalid puts left %d records", s.recs.Len())
	}
}

func TestPutAllIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, "a", "b", "c")
	// Pre-register "b" under a different key so the batch conflicts in
	// the middle.
	blocker := recs[1]
	blocker.KeyFingerprint = crypt.RecipientWatermarkKey("other secret", "b", blocker.Eta).Fingerprint()
	if err := s.Put(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAll(recs); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting batch: got %v, want ErrConflict", err)
	}
	// Nothing from the failed batch landed — not even "a".
	if _, ok := s.GetIn(tenant.DefaultID, "a"); ok {
		t.Error("failed batch registered a prefix")
	}
	if got, _ := s.GetIn(tenant.DefaultID, "b"); got.KeyFingerprint != blocker.KeyFingerprint {
		t.Error("failed batch mutated the existing record")
	}
	if s.recs.Len() != 1 {
		t.Fatalf("len = %d after failed batch", s.recs.Len())
	}
	// A clean batch lands completely and persists.
	if _, err := s.DeleteIn(tenant.DefaultID, "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAll(recs); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.recs.Len() != 3 {
		t.Fatalf("len after batch+reopen = %d", reopened.recs.Len())
	}
	// Duplicate IDs within one batch are rejected upfront.
	if err := New().PutAll([]Record{recs[0], recs[0]}); err == nil {
		t.Error("duplicate batch IDs accepted")
	}
}

// TestPutAllPersistFailureRestores: when the batch's one write fails
// (the registry's directory is moved away after Open), none of the
// batch stays in memory — the store still equals the file on disk.
func TestPutAllPersistFailureRestores(t *testing.T) {
	root := t.TempDir()
	dir, moved := filepath.Join(root, "live"), filepath.Join(root, "moved")
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	s, err := Open(filepath.Join(dir, "reg.json"))
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, "a", "b", "c")
	if err := s.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAll(recs); err == nil {
		t.Fatal("batch persisted into a missing directory")
	}
	onDisk, err := Open(filepath.Join(moved, "reg.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.List(), onDisk.List(); len(got) != 1 || len(want) != 1 || got[0].RecipientID != want[0].RecipientID {
		t.Fatalf("store holds %d records, disk holds %d", len(got), len(want))
	}
	if _, ok := s.GetIn(tenant.DefaultID, "b"); ok {
		t.Fatal("failed batch left a record in memory")
	}
}

func TestCandidatesFromSecret(t *testing.T) {
	recs := testRecords(t, "hospital-a", "hospital-b")
	cands, skipped, err := CandidatesFromSecret(recs, testSecret)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || len(skipped) != 0 {
		t.Fatalf("got %d candidates, %d skipped", len(cands), len(skipped))
	}
	for i, c := range cands {
		if c.ID != recs[i].RecipientID {
			t.Errorf("candidate %d: ID %q", i, c.ID)
		}
		if c.Provenance.Mark != recs[i].Mark {
			t.Errorf("candidate %d: provenance mark mismatch", i)
		}
		if err := c.Key.Validate(); err != nil {
			t.Errorf("candidate %d: %v", i, err)
		}
	}

	// A wholly wrong secret verifies nothing: hard error.
	if _, _, err := CandidatesFromSecret(recs, "wrong secret"); !errors.Is(err, core.ErrKeyMismatch) {
		t.Errorf("wrong secret: got %v", err)
	}

	// One foreign record (registered under another secret) is skipped,
	// not fatal — the rest of the registry stays traceable.
	foreign := recs[1]
	foreign.RecipientID = "foreign-x"
	foreign.KeyFingerprint = crypt.RecipientWatermarkKey("another secret", "foreign-x", foreign.Eta).Fingerprint()
	mixed := append([]Record{recs[0]}, foreign)
	cands, skipped, err = CandidatesFromSecret(mixed, testSecret)
	if err != nil {
		t.Fatalf("mixed registry: %v", err)
	}
	if len(cands) != 1 || cands[0].ID != "hospital-a" {
		t.Fatalf("mixed registry candidates: %+v", cands)
	}
	if len(skipped) != 1 || skipped[0] != "foreign-x" {
		t.Fatalf("mixed registry skipped: %v", skipped)
	}
}

func TestPutRefusesConflictingOverwrite(t *testing.T) {
	s := New()
	recs := testRecords(t, "hospital-a")
	if err := s.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put of the same (mark, key) is fine.
	again := recs[0]
	again.CreatedAt = "2026-07-30T12:00:00Z"
	if err := s.Put(again); err != nil {
		t.Fatalf("idempotent re-put refused: %v", err)
	}
	// A different key for the same ID would orphan the released copy.
	clobber := recs[0]
	clobber.KeyFingerprint = crypt.RecipientWatermarkKey("other secret", "hospital-a", clobber.Eta).Fingerprint()
	if err := s.Put(clobber); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting overwrite: got %v, want ErrConflict", err)
	}
	got, _ := s.GetIn(tenant.DefaultID, "hospital-a")
	if got.KeyFingerprint != recs[0].KeyFingerprint {
		t.Error("conflicting put mutated the stored record")
	}
	// After an explicit delete the replacement goes through.
	if _, err := s.DeleteIn(tenant.DefaultID, "hospital-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(clobber); err != nil {
		t.Fatalf("put after delete: %v", err)
	}
}

// TestStoreConcurrency is the -race workout: concurrent Put/Get/List/
// Delete over one persistent store must be safe and leave a loadable
// file behind.
func TestStoreConcurrency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	base := testRecords(t, "seed")[0]

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := base
				rec.RecipientID = fmt.Sprintf("r-%d-%d", w, i)
				if err := s.Put(rec); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				s.GetIn(tenant.DefaultID, rec.RecipientID)
				s.List()
				if i%3 == 0 {
					if _, err := s.DeleteIn(tenant.DefaultID, rec.RecipientID); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	reopened, err := Open(path)
	if err != nil {
		t.Fatalf("registry unreadable after concurrent writes: %v", err)
	}
	if reopened.recs.Len() != s.recs.Len() {
		t.Errorf("disk has %d records, memory has %d", reopened.recs.Len(), s.recs.Len())
	}
}

// BenchmarkRegistryPutAll times the registry persistence behind one
// fingerprint request at the service's shape: PutAll of 4 records from
// a 5k-row fingerprint into a file store that retains 48 more, so each
// call rewrites a file of 52 records. It reports the file's size.
func BenchmarkRegistryPutAll(b *testing.B) {
	fw, err := core.New(ontology.Trees(), core.Config{K: 15, AutoEpsilon: true})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := datagen.Generate(datagen.Config{Rows: 5000, Seed: 3, Correlate: true, ZipfS: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	recipients := make([]core.Recipient, 4)
	for i := range recipients {
		id := fmt.Sprintf("r%d", i)
		recipients[i] = core.Recipient{ID: id, Key: crypt.RecipientWatermarkKey(testSecret, id, 10)}
	}
	results, err := fw.FingerprintContext(context.Background(), tbl, recipients)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Record, len(results))
	for i, r := range results {
		batch[i] = RecordOf(r.RecipientID, recipients[i].Key, r.Protected.Plan)
	}
	path := filepath.Join(b.TempDir(), "registry.json")
	st, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < 12; n++ {
		retained := make([]Record, len(batch))
		for i, rec := range batch {
			rec.RecipientID = fmt.Sprintf("retained-%d-%d", n, i)
			retained[i] = rec
		}
		if err := st.PutAll(retained); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.PutAll(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(info.Size()), "file_bytes")
}

// Package registry is the owner-side recipient registry for
// multi-recipient fingerprinting: one record per outsourced copy,
// holding everything (besides the master secret) a later leak traceback
// needs — the recipient ID, the non-secret fingerprint of the copy's
// key, the recipient-salted mark and the frozen protection plan.
//
// The store is an internal/recstore keyed-record store: JSON on disk,
// written through internal/atomicfile (mode 0600; a crash mid-write
// never corrupts the registry), and safe for concurrent use. A store opened with an empty path is in-memory only —
// useful for tests and for service deployments that treat the registry
// as ephemeral.
//
// File format (FormatVersion 1):
//
//	{
//	  "registry_version": 1,
//	  "recipients": [
//	    {
//	      "recipient_id": "hospital-a",
//	      "eta": 75,
//	      "key_fingerprint": "b59c...",   // crypt.WatermarkKey.Fingerprint
//	      "mark": "01101...",             // F(v, recipient_id)
//	      "duplication": 4,
//	      "created_at": "2026-07-30T12:00:00Z",
//	      "plan": { ... core.Plan JSON ... }
//	    }
//	  ]
//	}
//
// Records are sorted by recipient ID; loading rejects unknown versions,
// duplicate IDs and invalid plans (a half-understood registry must not
// silently drive detection).
package registry

import (
	"cmp"
	"crypto/subtle"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/recstore"
	"repro/internal/tenant"
)

// FormatVersion is the registry file format version.
const FormatVersion = 1

// ErrConflict marks a Put that would replace an existing recipient's
// record with a different mark or key: the released copy carrying the
// old mark would become untraceable. Delete the old record explicitly
// (or register under a fresh ID) to proceed.
var ErrConflict = errors.New("registry: recipient already registered with a different mark or key")

// Record is one registered recipient.
type Record struct {
	// TenantID names the tenant that owns this record; the store's
	// *In accessors see only their own tenant's records. Empty means
	// tenant.DefaultID — records written before multi-tenancy (and CLI
	// usage, which is single-owner) load and persist unchanged.
	TenantID string `json:"tenant_id,omitempty"`
	// RecipientID is the stable recipient identifier; it salted the
	// copy's mark and keys this record.
	RecipientID string `json:"recipient_id"`
	// Eta is the selection parameter η the copy was marked under
	// (non-secret; the key re-derivation needs it).
	Eta uint64 `json:"eta"`
	// KeyFingerprint is the non-secret digest of the recipient's key
	// set. Traceback verifies a re-derived key against it before
	// trusting any verdict.
	KeyFingerprint string `json:"key_fingerprint"`
	// Mark and Duplication mirror the plan's watermark parameters for
	// at-a-glance reading; they must agree with Plan.
	Mark        string `json:"mark"`
	Duplication int    `json:"duplication"`
	// CreatedAt is an informational RFC3339 timestamp ("" when unknown).
	CreatedAt string `json:"created_at,omitempty"`
	// Plan is the recipient copy's effective protection plan — a
	// superset of the provenance record detection needs, so the same
	// registry also serves incremental appends to a recipient's copy.
	Plan core.Plan `json:"plan"`
}

// Validate checks the record's internal consistency.
func (r Record) Validate() error {
	if r.RecipientID == "" {
		return fmt.Errorf("registry: record has an empty recipient ID")
	}
	// NUL separates tenant from recipient in the store's composite
	// key; allowing it in either part would let crafted IDs collide
	// across tenants.
	if strings.Contains(r.TenantID, "\x00") || strings.Contains(r.RecipientID, "\x00") {
		return fmt.Errorf("registry: recipient %q: IDs must not contain NUL", r.RecipientID)
	}
	if r.KeyFingerprint == "" {
		return fmt.Errorf("registry: recipient %q: empty key fingerprint", r.RecipientID)
	}
	if err := r.Plan.Validate(); err != nil {
		return fmt.Errorf("registry: recipient %q: %w", r.RecipientID, err)
	}
	if r.Mark != r.Plan.Mark {
		return fmt.Errorf("registry: recipient %q: record mark does not match its plan", r.RecipientID)
	}
	if r.Duplication != r.Plan.Duplication {
		return fmt.Errorf("registry: recipient %q: record duplication does not match its plan", r.RecipientID)
	}
	return nil
}

// RecordOf builds the registry record for one fingerprinted copy.
func RecordOf(recipientID string, key crypt.WatermarkKey, plan core.Plan) Record {
	return Record{
		RecipientID:    recipientID,
		Eta:            key.Eta,
		KeyFingerprint: key.Fingerprint(),
		Mark:           plan.Mark,
		Duplication:    plan.Duplication,
		Plan:           plan,
	}
}

// Candidate converts a record plus the recipient's key into a traceback
// candidate, verifying the key against the stored fingerprint. The
// fingerprint is secret-derived, so the comparison is constant-time:
// a mismatch must not leak how many leading bytes a guessed secret got
// right.
func (r Record) Candidate(key crypt.WatermarkKey) (core.Candidate, error) {
	if subtle.ConstantTimeCompare([]byte(key.Fingerprint()), []byte(r.KeyFingerprint)) != 1 {
		return core.Candidate{}, fmt.Errorf(
			"registry: recipient %q: key does not match the registered fingerprint (wrong secret, or the record was registered under a foreign key): %w",
			r.RecipientID, core.ErrKeyMismatch)
	}
	return core.Candidate{ID: r.RecipientID, Provenance: r.Plan.Provenance, Key: key}, nil
}

// CandidatesFromSecret re-derives every record's key from the owner's
// master secret (crypt.RecipientWatermarkKey — the derivation
// fingerprinting used) and verifies each against the stored
// fingerprint. Records the secret does not verify are skipped and
// reported (second return) rather than failing the whole set — one
// foreign or stale record must not block tracing every other recipient.
// Only when the secret verifies nothing does it error with
// core.ErrKeyMismatch: that is a wrong secret, not a mixed registry.
func CandidatesFromSecret(recs []Record, secret string) ([]core.Candidate, []string, error) {
	out := make([]core.Candidate, 0, len(recs))
	var skipped []string
	for _, r := range recs {
		cand, err := r.Candidate(crypt.RecipientWatermarkKey(secret, r.RecipientID, r.Eta))
		if err != nil {
			skipped = append(skipped, r.RecipientID)
			continue
		}
		out = append(out, cand)
	}
	if len(out) == 0 && len(recs) > 0 {
		return nil, skipped, fmt.Errorf(
			"registry: the secret verifies none of the %d registered recipients (wrong master secret?): %w",
			len(recs), core.ErrKeyMismatch)
	}
	return out, skipped, nil
}

// Store is the concurrent-safe recipient registry. Records are keyed
// by (tenant, recipient): two tenants may each register a recipient
// named "hospital-a" without colliding, and the *In accessors scope
// every read and write to one tenant.
type Store struct {
	recs *recstore.Store[Record, document]
}

type document struct {
	Version    int      `json:"registry_version"`
	Recipients []Record `json:"recipients"`
}

// format is the registry file: records sorted by (tenant, recipient).
var format = recstore.Format[Record, document]{
	Name:    "registry",
	Version: FormatVersion,
	Key:     func(r Record) string { return storeKey(r.TenantID, r.RecipientID) },
	Compare: func(a, b Record) int {
		return cmp.Or(strings.Compare(a.TenantID, b.TenantID), strings.Compare(a.RecipientID, b.RecipientID))
	},
	Check: func(r Record) (Record, error) {
		// Migration: registries written before multi-tenancy carry no
		// tenant ID; those records are adopted by the default tenant so
		// existing files keep loading (and keep serving the CLI, which
		// always operates as the default tenant).
		r.TenantID = tenant.Normalize(r.TenantID)
		return r, r.Validate()
	},
	Wrap:   func(recs []Record) document { return document{Version: FormatVersion, Recipients: recs} },
	Unwrap: func(d document) (int, []Record) { return d.Version, d.Recipients },
}

// storeKey is the composite map key for a record.
func storeKey(tenantID, recipientID string) string {
	return tenant.Normalize(tenantID) + "\x00" + recipientID
}

// New returns an empty in-memory store (nothing is ever persisted).
func New() *Store { return &Store{recs: recstore.New(&format)} }

// Open loads the registry at path, or returns an empty store bound to
// path when the file does not exist yet (it is created on the first
// Put). An empty path is New().
func Open(path string) (*Store, error) {
	recs, err := recstore.Open(&format, path)
	if err != nil {
		return nil, err
	}
	return &Store{recs: recs}, nil
}

// GetIn returns tenantID's record for id.
func (s *Store) GetIn(tenantID, id string) (Record, bool) {
	return s.recs.Get(storeKey(tenantID, id))
}

// List returns every record across all tenants, sorted by (tenant,
// recipient) — the operator/CLI view. Tenant-scoped callers use ListIn.
func (s *Store) List() []Record { return s.recs.List() }

// ListIn returns tenantID's records sorted by recipient ID.
func (s *Store) ListIn(tenantID string) []Record {
	tenantID = tenant.Normalize(tenantID)
	all := s.recs.List()
	out := all[:0]
	for _, r := range all {
		if r.TenantID == tenantID {
			out = append(out, r)
		}
	}
	return out
}

// Put validates and inserts a record, persisting the store. Re-putting
// an identical (mark, key) record for an existing recipient is an
// idempotent update; replacing it with a *different* mark or key is
// refused with ErrConflict — silently overwriting would orphan the
// already-released copy (its leak could no longer be traced). Delete
// the old record first to force the replacement.
func (s *Store) Put(rec Record) error { return s.PutAll([]Record{rec}) }

// PutAll registers a batch atomically: every record is validated and
// conflict-checked against the store (and the batch itself) in one
// transaction that persists once — a fingerprint run either registers
// all its recipients or none, never a prefix. The same ErrConflict rule
// as Put applies per record.
func (s *Store) PutAll(recs []Record) error {
	return s.recs.Update(func(tx *recstore.Tx[Record, document]) error {
		seen := make(map[string]bool, len(recs))
		for _, r := range recs {
			key := storeKey(r.TenantID, r.RecipientID)
			if seen[key] {
				return fmt.Errorf("registry: duplicate recipient %q in batch", r.RecipientID)
			}
			seen[key] = true
			if prev, had := tx.Get(key); had && (prev.Mark != r.Mark || prev.KeyFingerprint != r.KeyFingerprint) {
				return fmt.Errorf(
					"registry: recipient %q is already registered with a different mark/key; delete the old record first (replacing it would make the released copy untraceable): %w",
					r.RecipientID, ErrConflict)
			}
			if err := tx.Put(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// DeleteIn removes tenantID's record for id, persisting the store. It
// reports whether the record existed.
func (s *Store) DeleteIn(tenantID, id string) (bool, error) {
	return s.recs.Delete(storeKey(tenantID, id))
}

// Package tenant is the multi-tenant identity layer of the medshield
// service: one Record per data owner sharing the server, carrying a
// hashed bearer token (the plaintext is shown once at creation and
// never stored), an admin/member role and per-tenant quotas. The store
// is JSON-on-disk, written through internal/atomicfile (mode 0600, never
// a torn file), and is safe for concurrent use; an empty path is
// in-memory only.
//
// Token handling is deliberately boring: a token is "mst_" + 32 random
// hex characters from crypto/rand, the store keeps only its SHA-256,
// and Authenticate compares the presented token's hash against every
// record with crypto/subtle so lookup time does not depend on which
// (if any) tenant matched.
//
// File format (FormatVersion 1):
//
//	{
//	  "tenants_version": 1,
//	  "tenants": [
//	    {
//	      "id": "hospital-a",
//	      "name": "Hospital A",
//	      "role": "member",
//	      "token_sha256": "9f86d0…",
//	      "quota": {"requests_per_minute": 600, "burst": 20},
//	      "created_at": "2026-08-07T12:00:00Z"
//	    }
//	  ]
//	}
package tenant

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicfile"
)

// FormatVersion is the tenant store file format version.
const FormatVersion = 1

// DefaultID is the tenant every pre-multi-tenant record is adopted
// into: registry and job files written before tenancy existed load with
// this tenant ID, and a server running without a tenant store (open
// single-tenant mode) serves every request as this tenant.
const DefaultID = "default"

// Normalize resolves a record's effective tenant: an empty ID is
// DefaultID. The registry and job stores migrate pre-tenancy records
// through it.
func Normalize(id string) string {
	if id == "" {
		return DefaultID
	}
	return id
}

// Role gates what a tenant's token may do beyond its own data: members
// use the pipeline and their own registry/jobs; admins additionally
// read operator surfaces (GET /metrics from a non-loopback address).
type Role string

const (
	RoleAdmin  Role = "admin"
	RoleMember Role = "member"
)

// Valid reports whether r is a known role.
func (r Role) Valid() bool { return r == RoleAdmin || r == RoleMember }

// Quota is a tenant's resource envelope. Zero values mean "unlimited" —
// the default tenant of the open single-tenant mode runs unquotaed.
type Quota struct {
	// RequestsPerMinute is the sustained token-bucket refill rate of
	// the tenant's rate limiter (0 = no rate limit).
	RequestsPerMinute int `json:"requests_per_minute,omitempty"`
	// Burst is the bucket capacity — how many requests may arrive
	// back-to-back before the limiter starts queueing. 0 defaults to
	// max(1, RequestsPerMinute/6) (a ten-second burst window).
	Burst int `json:"burst,omitempty"`
	// MaxRowsPerRequest caps the table size of one pipeline call,
	// counted after decode (and cumulatively across the segments of a
	// streaming body). 0 = unlimited.
	MaxRowsPerRequest int `json:"max_rows_per_request,omitempty"`
	// MaxActiveJobs caps the tenant's queued+running async jobs. 0 =
	// unlimited.
	MaxActiveJobs int `json:"max_active_jobs,omitempty"`
}

// EffectiveBurst resolves the Burst default.
func (q Quota) EffectiveBurst() int {
	if q.Burst > 0 {
		return q.Burst
	}
	return max(1, q.RequestsPerMinute/6)
}

// Record is one tenant.
type Record struct {
	// ID is the stable tenant identifier; it namespaces the recipient
	// registry and the job store.
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Role Role   `json:"role"`
	// TokenSHA256 is the hex SHA-256 of the tenant's bearer token; the
	// plaintext token is never stored.
	TokenSHA256 string `json:"token_sha256"`
	Quota       Quota  `json:"quota,omitzero"`
	// Disabled suspends the tenant: its token authenticates but every
	// request is refused (403) until re-enabled — revocation without
	// losing the record.
	Disabled bool `json:"disabled,omitempty"`
	// CreatedAt / RotatedAt are informational RFC3339 timestamps.
	CreatedAt string `json:"created_at,omitempty"`
	RotatedAt string `json:"rotated_at,omitempty"`
}

// Validate checks the record's internal consistency.
func (r Record) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("tenant: record has an empty ID")
	}
	if strings.ContainsAny(r.ID, "\x00\n") {
		return fmt.Errorf("tenant: tenant ID %q contains forbidden characters", r.ID)
	}
	if !r.Role.Valid() {
		return fmt.Errorf("tenant: tenant %q has unknown role %q", r.ID, r.Role)
	}
	if len(r.TokenSHA256) != sha256.Size*2 {
		return fmt.Errorf("tenant: tenant %q: token_sha256 must be %d hex characters", r.ID, sha256.Size*2)
	}
	if _, err := hex.DecodeString(r.TokenSHA256); err != nil {
		return fmt.Errorf("tenant: tenant %q: token_sha256 is not hex: %w", r.ID, err)
	}
	return nil
}

// tokenPrefix marks medshield service tokens; purely cosmetic (it makes
// leaked tokens grep-able) — authentication hashes the whole string.
const tokenPrefix = "mst_"

// NewToken generates a fresh bearer token and its stored hash. The
// token is the only copy — callers print it once and keep the hash.
func NewToken() (token, hash string) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a token from
		// a degraded source would be guessable.
		panic(fmt.Sprintf("tenant: reading random token bytes: %v", err))
	}
	token = tokenPrefix + hex.EncodeToString(b[:])
	return token, HashToken(token)
}

// HashToken returns the hex SHA-256 a presented token is compared
// under.
func HashToken(token string) string {
	sum := sha256.Sum256([]byte(token))
	return hex.EncodeToString(sum[:])
}

// ErrNotFound marks lookups of unknown tenant IDs.
var ErrNotFound = errors.New("tenant: no such tenant")

// Store is the concurrent-safe tenant store.
type Store struct {
	mu   sync.RWMutex
	path string // "" = in-memory only
	recs map[string]Record
}

// New returns an empty in-memory store (nothing is ever persisted).
func New() *Store { return &Store{recs: make(map[string]Record)} }

// Open loads the tenant store at path, or returns an empty store bound
// to path when the file does not exist yet. An empty path is New().
func Open(path string) (*Store, error) {
	s := New()
	s.path = path
	if path == "" {
		return s, nil
	}
	var doc document
	found, err := atomicfile.ReadJSON(path, &doc)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	if !found {
		return s, nil
	}
	if doc.Version != FormatVersion {
		return nil, fmt.Errorf("tenant: %s has format version %d, want %d", path, doc.Version, FormatVersion)
	}
	for _, r := range doc.Tenants {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", path, err)
		}
		if _, dup := s.recs[r.ID]; dup {
			return nil, fmt.Errorf("tenant: %s: duplicate tenant %q", path, r.ID)
		}
		s.recs[r.ID] = r
	}
	return s, nil
}

// Path returns the backing file path ("" for an in-memory store).
func (s *Store) Path() string { return s.path }

// Len returns the number of tenants.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Get returns the record for id.
func (s *Store) Get(id string) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.recs[id]
	return r, ok
}

// List returns every record sorted by tenant ID.
func (s *Store) List() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sortedLocked()
}

// sortedLocked returns every record sorted by tenant ID. Callers hold a
// lock.
func (s *Store) sortedLocked() []Record {
	out := make([]Record, 0, len(s.recs))
	for _, r := range s.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Put validates and inserts or replaces a record, persisting the store.
func (s *Store) Put(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.recs[rec.ID]
	s.recs[rec.ID] = rec
	if err := s.persistLocked(); err != nil {
		// Keep memory and disk in agreement on failure.
		if had {
			s.recs[rec.ID] = prev
		} else {
			delete(s.recs, rec.ID)
		}
		return err
	}
	return nil
}

// Delete removes a record, persisting the store. It reports whether the
// record existed.
func (s *Store) Delete(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.recs[id]
	if !had {
		return false, nil
	}
	delete(s.recs, id)
	if err := s.persistLocked(); err != nil {
		s.recs[id] = prev
		return false, err
	}
	return true, nil
}

// Rotate replaces the tenant's token with a fresh one, returning the
// new plaintext (shown once). The old token stops authenticating the
// moment Rotate persists.
func (s *Store) Rotate(id, rotatedAt string) (token string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.recs[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	rec := prev
	token, hash := NewToken()
	rec.TokenSHA256 = hash
	rec.RotatedAt = rotatedAt
	s.recs[id] = rec
	if err := s.persistLocked(); err != nil {
		s.recs[id] = prev
		return "", err
	}
	return token, nil
}

// Authenticate resolves a presented bearer token to its tenant. The
// token's SHA-256 is compared against every stored hash with
// crypto/subtle (no early exit), so the lookup leaks neither which
// tenant matched nor how close a guess came. Disabled tenants still
// resolve — the caller refuses them with a distinct "forbidden" rather
// than the "unauthorized" an unknown token gets, so a suspended
// customer sees suspension, not a credential bug.
func (s *Store) Authenticate(token string) (Record, bool) {
	sum, err := hex.DecodeString(HashToken(token))
	if err != nil { // unreachable: HashToken always yields hex
		return Record{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var (
		match Record
		found int
	)
	for _, r := range s.recs {
		raw, err := hex.DecodeString(r.TokenSHA256)
		if err != nil {
			continue
		}
		if subtle.ConstantTimeCompare(sum, raw) == 1 {
			// Keep scanning: the loop must touch every record regardless
			// of where the match sits.
			match = r
			found = 1
		}
	}
	return match, found == 1
}

type document struct {
	Version int      `json:"tenants_version"`
	Tenants []Record `json:"tenants"`
}

// persistLocked writes the store through atomicfile, mode 0600.
// Callers hold the write lock.
func (s *Store) persistLocked() error {
	if s.path == "" {
		return nil
	}
	data, err := json.MarshalIndent(document{Version: FormatVersion, Tenants: s.sortedLocked()}, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(s.path, 0o600, atomicfile.Bytes(append(data, '\n')))
}

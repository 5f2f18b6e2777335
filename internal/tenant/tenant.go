// Package tenant is the multi-tenant identity layer of the medshield
// service: one Record per data owner sharing the server, carrying a
// hashed bearer token (the plaintext is shown once at creation and
// never stored), an admin/member role and per-tenant quotas. The store
// is an internal/recstore keyed-record store: JSON on disk, written
// through internal/atomicfile (mode 0600, never a torn file), and safe
// for concurrent use; an empty path is in-memory only.
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
	"errors"
	"fmt"
	"strings"

	"repro/internal/recstore"
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

// Store is the concurrent-safe tenant store, an internal/recstore store
// keyed by tenant ID; List is sorted by ID.
type Store struct {
	*recstore.Store[Record, document]
}

type document struct {
	Version int      `json:"tenants_version"`
	Tenants []Record `json:"tenants"`
}

var format = recstore.Format[Record, document]{
	Name:    "tenant",
	Version: FormatVersion,
	Key:     func(r Record) string { return r.ID },
	Compare: func(a, b Record) int { return strings.Compare(a.ID, b.ID) },
	Check:   func(r Record) (Record, error) { return r, r.Validate() },
	Wrap:    func(recs []Record) document { return document{Version: FormatVersion, Tenants: recs} },
	Unwrap:  func(d document) (int, []Record) { return d.Version, d.Tenants },
}

// New returns an empty in-memory store (nothing is ever persisted).
func New() *Store { return &Store{recstore.New(&format)} }

// Open loads the tenant store at path, or returns an empty store bound
// to path when the file does not exist yet. An empty path is New().
func Open(path string) (*Store, error) {
	s, err := recstore.Open(&format, path)
	if err != nil {
		return nil, err
	}
	return &Store{s}, nil
}

// Rotate replaces the tenant's token with a fresh one, returning the
// new plaintext (shown once). The old token stops authenticating the
// moment Rotate persists.
func (s *Store) Rotate(id, rotatedAt string) (token string, err error) {
	err = s.Update(func(tx *recstore.Tx[Record, document]) error {
		rec, ok := tx.Get(id)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		token, rec.TokenSHA256 = NewToken()
		rec.RotatedAt = rotatedAt
		return tx.Put(rec)
	})
	if err != nil {
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
	sum := sha256.Sum256([]byte(token)) // the bytes HashToken hex-encodes
	var (
		match Record
		found int
	)
	// The scan touches every record regardless of where the match sits.
	s.Range(func(r Record) {
		raw, err := hex.DecodeString(r.TokenSHA256)
		if err == nil && subtle.ConstantTimeCompare(sum[:], raw) == 1 {
			match = r
			found = 1
		}
	})
	return match, found == 1
}

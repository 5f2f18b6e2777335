package core

import (
	"errors"

	"repro/internal/binning"
)

// Sentinel errors of the protection pipeline. Every error returned by
// New, ProtectContext, DetectContext, DisputeContext and
// DecryptIdentifiers wraps exactly one of these (or a context error), so
// callers — in particular the HTTP service layer — classify failures
// with errors.Is instead of string matching.
var (
	// ErrBadConfig marks an invalid Config rejected by New.
	ErrBadConfig = errors.New("invalid configuration")
	// ErrBadKey marks unusable key material (empty subkeys, k1 = k2,
	// zero η).
	ErrBadKey = errors.New("invalid key material")
	// ErrBadSchema marks a table or schema the pipeline cannot process:
	// a missing identifying column, no quasi-identifying columns, or
	// identifying values the ownership statistic cannot be derived from.
	ErrBadSchema = errors.New("schema mismatch")
	// ErrBadProvenance marks a provenance record that does not fit the
	// framework: unknown columns, frontiers from a different tree, or a
	// malformed mark string.
	ErrBadProvenance = errors.New("invalid provenance record")
	// ErrUnsatisfiable marks a table that cannot be binned (or
	// watermarked) under the configured K and usage metrics. It is the
	// binning agent's sentinel, re-exported so callers need only import
	// core.
	ErrUnsatisfiable = binning.ErrUnsatisfiable
	// ErrKeyMismatch marks a key that is well-formed but does not match
	// the data: identifying-column ciphertexts fail to authenticate
	// under it.
	ErrKeyMismatch = errors.New("key does not match the data")
	// ErrPlanDrift marks a delta batch that no longer fits a frozen
	// protection plan: a value falls outside the planned generalization
	// frontiers, or appending would create a bin below k. The remedy is
	// to re-plan over the combined table (PlanContext + ApplyContext),
	// not to force the append.
	ErrPlanDrift = errors.New("delta drifts from the protection plan")
)

package medshield

import (
	"repro/internal/infoloss"
)

// Option configures a Framework at construction. Options are applied in
// order over the zero Config; New validates the result eagerly, so an
// inconsistent combination fails at construction rather than at the
// first Protect. The effective (defaulted) configuration remains
// observable — and serializable — as Framework.Config().
type Option func(*Config)

// WithK sets the k-anonymity specification parameter.
func WithK(k int) Option { return func(c *Config) { c.K = k } }

// WithEpsilon sets a fixed §6 binning slack ε (ignored under
// WithAutoEpsilon).
func WithEpsilon(eps int) Option { return func(c *Config) { c.Epsilon = eps } }

// WithAutoEpsilon enables the paper's conservative ε = (s/S)·|wmd|,
// computed from a first binning pass.
func WithAutoEpsilon() Option { return func(c *Config) { c.AutoEpsilon = true } }

// WithMaxGens gives the usage metrics directly as maximal generalization
// nodes (the simplification §7 uses).
func WithMaxGens(maxGens map[string]GenSet) Option {
	return func(c *Config) { c.MaxGens = maxGens }
}

// WithMetrics gives the usage metrics as Equation (4) information-loss
// bounds instead of explicit frontiers.
func WithMetrics(m *infoloss.Metrics) Option { return func(c *Config) { c.Metrics = m } }

// WithStrategy selects the multi-attribute binning search.
func WithStrategy(s Strategy) Option { return func(c *Config) { c.Strategy = s } }

// WithEnumLimit caps the exhaustive search's candidate product.
func WithEnumLimit(n int) Option { return func(c *Config) { c.EnumLimit = n } }

// WithAggressive selects the paper's sketched aggressive mono-binning
// rule (deficient bins are suppressed).
func WithAggressive() Option { return func(c *Config) { c.Aggressive = true } }

// WithIdentCol names the identifying column anchoring the watermark;
// unset selects the schema's sole identifying column.
func WithIdentCol(col string) Option { return func(c *Config) { c.IdentCol = col } }

// WithMarkBits sets the mark length |wm| (default 20, as in §7.2).
func WithMarkBits(n int) Option { return func(c *Config) { c.MarkBits = n } }

// WithDuplication sets the mark replication factor l (default 4).
func WithDuplication(l int) Option { return func(c *Config) { c.Duplication = l } }

// WithQuantum sets the quantization step of the ownership function F.
func WithQuantum(q float64) Option { return func(c *Config) { c.Quantum = q } }

// WithTau sets the §5.4 statistic tolerance τ used in disputes.
func WithTau(tau float64) Option { return func(c *Config) { c.Tau = tau } }

// WithLossThreshold sets the maximal mark loss accepted as a Match.
func WithLossThreshold(t float64) Option { return func(c *Config) { c.LossThreshold = t } }

// WithWeightedVoting weights bits recovered from higher tree levels more
// during detection (§5.3).
func WithWeightedVoting() Option { return func(c *Config) { c.WeightedVoting = true } }

// WithBoundaryPermutation enables the §5.1 boundary relaxation for every
// plan. Without it, an apply turns the relaxation on only when the
// frontiers leave the hierarchical channel empty (every maximal node
// covers exactly one ultimate node), and records that in the effective
// plan.
func WithBoundaryPermutation() Option { return func(c *Config) { c.BoundaryPermutation = true } }

// WithNoColumnSalt restores the paper's literal single-column position
// addressing: every watermarked column of a tuple shares one mark
// position instead of each column salting its own.
func WithNoColumnSalt() Option { return func(c *Config) { c.NoColumnSalt = true } }

// WithWorkers bounds the goroutines the pipeline fans out to
// (0 = GOMAXPROCS, 1 = sequential). Outputs are identical for every
// worker count.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithChunk sets the streaming segment size in rows (0 = DefaultChunk)
// used by ApplyStream/AppendStream and Table.Segments. Peak streaming
// memory scales with the chunk; output bytes do not depend on it.
// Values below 1 are rejected at construction (ErrBadConfig).
func WithChunk(rows int) Option { return func(c *Config) { c.Chunk = rows } }

// WithConfig overlays a complete Config — the bridge for callers that
// deserialize an effective configuration (e.g. the HTTP service applying
// request overrides on server defaults) or migrate from the v1
// struct-literal API. Later options still apply on top.
func WithConfig(cfg Config) Option { return func(c *Config) { *c = cfg } }

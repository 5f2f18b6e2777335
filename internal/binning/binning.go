package binning

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/anonymity"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/relation"
)

// ErrUnsatisfiable reports that no generalization within the usage
// metrics satisfies the k-anonymity specification — the data are not
// binnable as configured. Callers detect it with errors.Is and can react
// by relaxing the metrics, lowering K, or rejecting the request (the
// service layer maps it to 422 Unprocessable Entity).
var ErrUnsatisfiable = errors.New("k-anonymity unsatisfiable under the usage metrics")

// Config parameterizes the binning agent.
type Config struct {
	// K is the k-anonymity parameter.
	K int
	// Epsilon is the slack of Section 6: binning targets k+ε so that the
	// later watermarking step cannot push any bin below k. Use
	// EpsilonForMark for the paper's conservative choice.
	Epsilon int
	// Trees maps every quasi-identifying column to its DHT.
	Trees map[string]*dht.Tree
	// MaxGens is the usage metrics in maximal-generalization-node form
	// (the paper's preferred, off-line-enforced representation). Columns
	// absent here fall back to Metrics-derived frontiers, or to the root
	// frontier when Metrics is nil.
	MaxGens map[string]dht.GenSet
	// Metrics optionally provides Equation (4) bounds from which maximal
	// generalization nodes are derived for columns missing from MaxGens.
	Metrics *infoloss.Metrics
	// Strategy selects the multi-attribute search (default Auto).
	Strategy Strategy
	// EnumLimit caps exhaustive enumeration (default DefaultEnumLimit).
	EnumLimit int
	// Aggressive switches mono-attribute binning to the paper's sketched
	// aggressive minimality rule (may yield deficient bins, whose rows
	// the search records in SearchResult.SuppressValues for Suppress).
	Aggressive bool
	// Workers bounds the goroutines used by the exhaustive
	// multi-attribute search (0 = GOMAXPROCS, 1 = sequential). The output
	// is identical for every worker count.
	Workers int
}

// SearchResult is the outcome of the frontier search (stages 1–3 of
// Figure 8): the per-column frontiers and loss metrics, without the
// table transform. It is everything a later TransformContext — on the
// same table or on a freshly arrived batch — needs to bin data to the
// searched frontiers without repeating the search.
type SearchResult struct {
	// MinGens, MaxGens and UltiGens are the per-column frontiers
	// (minimal, maximal and ultimate generalization nodes).
	MinGens, MaxGens, UltiGens map[string]dht.GenSet
	// ColumnLoss is the Equation (1)/(2) information loss per column, and
	// AvgLoss the Equation (3) normalized loss.
	ColumnLoss map[string]float64
	AvgLoss    float64
	// EffectiveK is K+Epsilon, the anonymity level actually enforced.
	EffectiveK int
	// Suppressed counts rows the aggressive rule removed during the
	// search (0 under the conservative rule).
	Suppressed int
	// SuppressValues records, per quasi column, the values of the
	// deficient frontier nodes whose rows the aggressive rule removed.
	// Suppress replays the removal on any row batch, so a serialized
	// search outcome can reproduce the suppression without MonoStats.
	SuppressValues map[string][]string
	// MonoStats and MultiStats expose algorithm work counters.
	MonoStats  map[string]MonoStats
	MultiStats MultiStats
	// tuples is the post-suppression quasi-tuple state of the search —
	// what GeneralizedBins consumes.
	tuples *sketchTuples
}

// EpsilonForMark returns the paper's conservative ε (Section 6):
// ε = (s/S)·|wmd|, where s is the biggest bin size, S the sum of all bin
// sizes and |wmd| the replicated mark length.
func EpsilonForMark(binSizes map[string]int, wmdLen int) int {
	s, total := 0, 0
	for _, n := range binSizes {
		total += n
		if n > s {
			s = n
		}
	}
	if total == 0 {
		return 0
	}
	return int(math.Ceil(float64(s) / float64(total) * float64(wmdLen)))
}

// suppressColumn removes the rows whose value in column colIdx falls
// under any of the deficient subtree-root values. Deficiency is a
// property of the value, so the verdict is computed once per dictionary
// entry and rows drop by code. Values that do not resolve to a leaf are
// kept — they were never counted by the histogram the deficiency verdict
// came from.
func suppressColumn(tbl *relation.Table, colIdx int, tree *dht.Tree, deficient []string) (int, error) {
	roots := make([]dht.NodeID, 0, len(deficient))
	for _, v := range deficient {
		id, err := tree.ResolveValue(v)
		if err != nil {
			return 0, fmt.Errorf("deficient value %q: %w", v, err)
		}
		roots = append(roots, id)
	}
	dict := tbl.DictValues(colIdx)
	drop := make([]bool, len(dict))
	for code, v := range dict {
		leaf, err := tree.ResolveLeaf(v)
		if err != nil {
			continue
		}
		for _, d := range roots {
			if tree.IsAncestorOrSelf(d, leaf) {
				drop[code] = true
				break
			}
		}
	}
	return tbl.DeleteWhereView(func(v relation.RowView) bool {
		return drop[v.Code(colIdx)]
	}), nil
}

// Suppress replays a recorded aggressive-rule suppression (per-column
// deficient frontier values, as in SearchResult.SuppressValues) on tbl,
// in place, and returns the number of rows removed. Columns are applied
// in the table's quasi-column order; each column's verdict depends only
// on its own values, so the surviving row set matches the interleaved
// suppression of the original search.
func Suppress(tbl *relation.Table, trees map[string]*dht.Tree, suppress map[string][]string) (int, error) {
	if len(suppress) == 0 {
		return 0, nil
	}
	removed := 0
	for _, col := range tbl.Schema().QuasiColumns() {
		values, ok := suppress[col]
		if !ok || len(values) == 0 {
			continue
		}
		tree, ok := trees[col]
		if !ok || tree == nil {
			return removed, fmt.Errorf("binning: no DHT for suppressed column %s", col)
		}
		colIdx, err := tbl.Schema().Index(col)
		if err != nil {
			return removed, err
		}
		n, err := suppressColumn(tbl, colIdx, tree, values)
		if err != nil {
			return removed, fmt.Errorf("binning: column %s: %w", col, err)
		}
		removed += n
	}
	return removed, nil
}

// TransformContext applies searched frontiers to a copy of tbl — stages
// 4+5 of Figure 8 — and returns the copy: TransformInPlace over a
// clone. The input table is not modified.
func TransformContext(ctx context.Context, tbl *relation.Table, ultiGens map[string]dht.GenSet, effectiveK int, cipher *crypt.Cipher, workers int) (*relation.Table, error) {
	out := tbl.Clone()
	if err := TransformInPlace(ctx, out, ultiGens, effectiveK, cipher, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformInPlace applies searched frontiers to tbl itself — stages
// 4+5 of Figure 8: encrypt identifying columns with cipher, generalize
// quasi columns to the ultimate generalization nodes, then defensively
// verify k-anonymity at the effective level. The write loop runs it on
// the segments it owns; on error tbl is left partly transformed.
//
// Both transforms are deterministic per-value, so they rewrite the
// column dictionaries: encryption runs once per distinct identifier
// (fanned out over workers — the cipher is safe for concurrent use) and
// generalization once per distinct quasi value (typically a handful of
// dictionary entries for 20k+ rows); rows only have their codes
// remapped. Encryption is injective with tokens of known length
// (crypt.TokenLen), so the identifier dictionary is laid out once
// without a dedup index. A value that cannot be generalized to the
// given frontier (not in the tree's domain, or above the frontier)
// fails the transform.
func TransformInPlace(ctx context.Context, tbl *relation.Table, ultiGens map[string]dht.GenSet, effectiveK int, cipher *crypt.Cipher, workers int) error {
	schema := tbl.Schema()
	quasi := schema.QuasiColumns()
	idents := schema.IdentColumns()
	if len(idents) > 0 && cipher == nil {
		return fmt.Errorf("binning: schema has identifying columns but no cipher")
	}
	for _, col := range quasi {
		if _, ok := ultiGens[col]; !ok {
			return fmt.Errorf("binning: no ultimate generalization nodes for quasi column %s", col)
		}
	}
	for _, col := range idents {
		colIdx, _ := schema.Index(col)
		if _, err := tbl.MapColumnCtx(ctx, workers, colIdx, func(dst []byte, v string) ([]byte, error) {
			return cipher.AppendEncryptString(dst, v), nil
		}, crypt.TokenLen); err != nil {
			return err
		}
	}
	for _, col := range quasi {
		gen := ultiGens[col]
		colIdx, _ := schema.Index(col)
		if _, err := tbl.MapColumnCtx(ctx, workers, colIdx, func(dst []byte, v string) ([]byte, error) {
			g, err := gen.GeneralizeValue(v)
			if err != nil {
				return nil, fmt.Errorf("binning: column %s value %q: %w", col, v, err)
			}
			return append(dst, g...), nil
		}, nil); err != nil {
			return err
		}
	}

	// Defensive verification: the binned table must satisfy k-anonymity
	// at the effective level. effectiveK <= 0 disables the check (the
	// write loop judges the combined bins of every segment instead — a
	// lone segment may legitimately hold small bins) rather than paying
	// a full bin scan for an unfailable comparison.
	if effectiveK > 0 && tbl.NumRows() > 0 {
		ok, err := anonymity.SatisfiesK(tbl, quasi, effectiveK)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("binning: internal: output violates k=%d anonymity", effectiveK)
		}
	}
	return nil
}

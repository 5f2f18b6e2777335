// Package watermark implements the paper's watermarking algorithms
// (Section 5): the hierarchical scheme of Figure 9 — Embedding, Permutate
// and Detection — plus the single-level scheme of §5.2, which exists as
// the baseline that the generalization attack destroys.
//
// The bandwidth channel (§5.1) is the gap between the maximal
// generalization nodes (usage metrics) and the ultimate generalization
// nodes (binning output): permuting a value among nodes below its maximal
// generalization node equals a generalization that usage metrics already
// allow, so the data tolerate it. The hierarchical scheme embeds one mark
// bit at *every* tree level between the two frontiers, which is what
// defeats the generalization attack.
package watermark

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/dht"
)

// ColumnSpec describes one watermarkable (quasi-identifying, binned)
// column: its domain hierarchy tree, the maximal generalization nodes
// from the usage metrics, and the ultimate generalization nodes the data
// are binned to.
type ColumnSpec struct {
	Tree    *dht.Tree
	MaxGen  dht.GenSet
	UltiGen dht.GenSet
}

func (c ColumnSpec) validate(col string) error {
	if c.Tree == nil {
		return fmt.Errorf("watermark: column %s: nil tree", col)
	}
	if c.MaxGen.Tree() != c.Tree || c.UltiGen.Tree() != c.Tree {
		return fmt.Errorf("watermark: column %s: frontiers must belong to the column's tree", col)
	}
	if !c.UltiGen.AtOrBelow(c.MaxGen) {
		return fmt.Errorf("watermark: column %s: ultimate nodes must be at or below maximal nodes", col)
	}
	return nil
}

// Params carries the secret watermarking key and embedding policy.
type Params struct {
	// Key holds k1 (tuple selection), k2 (index/position derivation) and
	// η (selection density) — Table 1 of the paper.
	Key crypt.WatermarkKey
	// Mark is the mark wm to embed (the paper's experiments use 20 bits).
	Mark bitstr.Bits
	// Duplication is the replication factor l: wmd = Duplicate(wm, l).
	// Must be >= 1.
	Duplication int
	// WeightedVoting gives bits recovered from higher tree levels more
	// voting weight, implementing the §5.3 policy that "the copy from a
	// higher level is more reliable than that from a lower level".
	WeightedVoting bool
	// SaltPositionWithColumn includes the column name in the wmd-position
	// hash so different columns of one tuple carry different mark
	// positions; the paper addresses every column of a tuple at one
	// position. Disable for the paper's literal single-column behaviour.
	SaltPositionWithColumn bool
	// BoundaryPermutation enables the §5.1 relaxation for tuples whose
	// ultimate generalization node is also a maximal generalization node:
	// the value is permuted among sibling frontier nodes, trading a small
	// usage-metric overshoot for bandwidth. Off by default (such tuples
	// then carry no bits).
	BoundaryPermutation bool
	// Workers bounds the goroutines embedding and detection spread the
	// Equation (5) selection scan (and detection its per-column verdict
	// tables) over (0 = GOMAXPROCS, 1 = sequential).
	// Tuples are sharded into contiguous row ranges whose selections are
	// concatenated in row order, and the walk over the selected tuples
	// is sequential, so the embedded table, the recovered mark and all
	// statistics are identical for every worker count.
	Workers int
}

// Validate checks the key, a non-empty mark and a duplication factor of
// at least 1 — the parameters every embedding and detection requires.
func (p Params) Validate() error {
	if err := p.Key.Validate(); err != nil {
		return err
	}
	if p.Mark.Len() < 1 {
		return errors.New("watermark: empty mark")
	}
	if p.Duplication < 1 {
		return errors.New("watermark: Duplication must be >= 1")
	}
	return nil
}

func (p Params) wmdLen() int { return p.Mark.Len() * p.Duplication }

// WmdLen is the replicated mark length |wmd| = |wm|·l — the position
// count streaming callers size their persistent vote boards with.
func (p Params) WmdLen() int { return p.wmdLen() }

// The domain labels of the keyed H calls. They are package variables,
// so no per-tuple call converts a constant.
var (
	labelPos      = []byte("pos")
	labelPerm     = []byte("perm")
	labelBoundary = []byte("boundary")
	// levelLabels[d:d+1] is the one-byte salt of walk depth d.
	levelLabels = func() (t [256]byte) {
		for i := range t {
			t[i] = byte(i)
		}
		return t
	}()
)

// positionOf returns the wmd position addressed by a tuple (and column,
// when salting is on): the paper's H(ti.ident, k2) mod |wmd|. col is
// the column name's bytes.
func (p Params) positionOf(prf2 *crypt.PRF, ident, col []byte) int {
	if p.SaltPositionWithColumn {
		return int(prf2.Mod(uint64(p.wmdLen()), ident, labelPos, col))
	}
	return int(prf2.Mod(uint64(p.wmdLen()), ident, labelPos))
}

// EmbedStats reports embedding work.
type EmbedStats struct {
	// TuplesSelected is the number of tuples passing Equation (5).
	TuplesSelected int
	// BitsEmbedded counts levels that carried a mark bit, across all
	// selected tuples and columns.
	BitsEmbedded int
	// CellsChanged counts cells whose value actually changed.
	CellsChanged int
	// ZeroBandwidth counts (tuple, column) pairs with no capacity —
	// the ultimate node coincides with the maximal node and boundary
	// permutation is off (or has fewer than two eligible siblings).
	ZeroBandwidth int
}

// DetectStats reports detection work.
type DetectStats struct {
	// TuplesSelected is the number of tuples passing Equation (5).
	TuplesSelected int
	// VotesCast counts per-(tuple, column) majority votes contributed.
	VotesCast int
	// BitsRead counts individual level bits harvested.
	BitsRead int
	// SkippedCells counts selected cells that yielded nothing (value not
	// in the domain, above the usage metrics, or at a bitless position).
	SkippedCells int
}

// DetectResult is the detector's output.
type DetectResult struct {
	// Mark is the recovered mark (positions without votes resolve to 0).
	Mark bitstr.Bits
	// Confidence is the per-position vote margin in [0,1].
	Confidence []float64
	// Stats reports detection work.
	Stats DetectStats
}

// MarkLoss returns the fraction of mark bits the detector got wrong —
// the y-axis of Figure 12.
func MarkLoss(original bitstr.Bits, detected DetectResult) (float64, error) {
	return original.LossFraction(detected.Mark)
}

// setMuBit is the paper's SetµBit(v, b) adjusted for the out-of-range
// corner the paper leaves open: force the least significant bit of v to
// b; if that leaves the index outside [0, size), step one pair back.
// size must be >= 2.
func setMuBit(v int, bit bool, size int) int {
	v = v &^ 1
	if bit {
		v |= 1
	}
	if v >= size {
		v -= 2
	}
	return v
}

// sortColumns returns the map keys in deterministic order.
func sortColumns(columns map[string]ColumnSpec) []string {
	out := make([]string, 0, len(columns))
	for c := range columns {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// boundarySet returns the canonical permutation set for the §5.1 boundary
// case at node nd: nd's siblings (including itself) that are both
// ultimate-frontier members and covered by the maximal frontier, sorted
// by value. Embedder and detector must agree on this set exactly.
func boundarySet(spec ColumnSpec, nd dht.NodeID) []dht.NodeID {
	var out []dht.NodeID
	for _, s := range spec.Tree.SortedSiblings(nd) {
		if !spec.UltiGen.Contains(s) {
			continue
		}
		if _, ok := spec.MaxGen.CoverOf(s); !ok {
			continue
		}
		out = append(out, s)
	}
	return out
}

// indexIn returns the position of nd in set, or -1.
func indexIn(nd dht.NodeID, set []dht.NodeID) int {
	for i, s := range set {
		if s == nd {
			return i
		}
	}
	return -1
}

// Package bitstr implements fixed-length bit strings used as watermark
// marks. A mark wm is a short bit string (the paper uses 20 bits); the
// replicated mark wmd is wm duplicated l times (Duplicate in Table 1 of the
// paper). Detection accumulates votes per position and folds replicas back
// into a single mark by majority voting (MajorVot).
package bitstr

import (
	"errors"
	"fmt"
	"strings"
)

// Bits is an immutable-by-convention bit string. The zero value is the
// empty bit string.
type Bits struct {
	n    int
	bits []byte // packed LSB-first within each byte
}

// New returns an all-zero bit string of length n. n must be >= 0.
func New(n int) Bits {
	if n < 0 {
		panic("bitstr: negative length")
	}
	return Bits{n: n, bits: make([]byte, (n+7)/8)}
}

// FromString parses a string of '0' and '1' runes, e.g. "10110".
func FromString(s string) (Bits, error) {
	b := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			b.setInPlace(i, true)
		default:
			return Bits{}, fmt.Errorf("bitstr: invalid rune %q at position %d", r, i)
		}
	}
	return b, nil
}

// FromBytes builds an n-bit string from the first n bits of raw
// (LSB-first within each byte). It errors if raw holds fewer than n bits.
func FromBytes(raw []byte, n int) (Bits, error) {
	if len(raw)*8 < n {
		return Bits{}, fmt.Errorf("bitstr: need %d bits, got %d", n, len(raw)*8)
	}
	b := New(n)
	for i := 0; i < n; i++ {
		if raw[i/8]&(1<<(uint(i)%8)) != 0 {
			b.setInPlace(i, true)
		}
	}
	return b, nil
}

// Len returns the number of bits.
func (b Bits) Len() int { return b.n }

// Get returns bit i. It panics if i is out of range.
func (b Bits) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitstr: index %d out of range [0,%d)", i, b.n))
	}
	return b.bits[i/8]&(1<<(uint(i)%8)) != 0
}

func (b *Bits) setInPlace(i int, v bool) {
	mask := byte(1) << (uint(i) % 8)
	if v {
		b.bits[i/8] |= mask
	} else {
		b.bits[i/8] &^= mask
	}
}

func (b Bits) clone() Bits {
	c := Bits{n: b.n, bits: make([]byte, len(b.bits))}
	copy(c.bits, b.bits)
	return c
}

// String renders the bit string as '0'/'1' runes, index 0 first.
func (b Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Equal reports whether two bit strings have the same length and contents.
func (b Bits) Equal(o Bits) bool {
	if b.n != o.n {
		return false
	}
	for i := 0; i < b.n; i++ {
		if b.Get(i) != o.Get(i) {
			return false
		}
	}
	return true
}

// Hamming returns the Hamming distance between two equal-length bit
// strings, i.e. the number of differing positions.
func (b Bits) Hamming(o Bits) (int, error) {
	if b.n != o.n {
		return 0, errors.New("bitstr: length mismatch")
	}
	d := 0
	for i := 0; i < b.n; i++ {
		if b.Get(i) != o.Get(i) {
			d++
		}
	}
	return d, nil
}

// LossFraction returns the fraction of positions of b that differ in o
// (the paper's "mark loss"). Both strings must be the same length.
func (b Bits) LossFraction(o Bits) (float64, error) {
	if b.n == 0 {
		return 0, nil
	}
	d, err := b.Hamming(o)
	if err != nil {
		return 0, err
	}
	return float64(d) / float64(b.n), nil
}

// Duplicate concatenates l copies of b, producing the replicated mark wmd
// of the paper (|wmd| = l·|wm|). l must be >= 1.
func (b Bits) Duplicate(l int) Bits {
	if l < 1 {
		panic("bitstr: duplication factor must be >= 1")
	}
	d := New(b.n * l)
	for c := 0; c < l; c++ {
		for i := 0; i < b.n; i++ {
			if b.Get(i) {
				d.setInPlace(c*b.n+i, true)
			}
		}
	}
	return d
}

// VoteBoard accumulates weighted votes for each position of a bit string
// during watermark detection. The zero value is not usable; use NewVoteBoard.
type VoteBoard struct {
	zero []float64
	one  []float64
}

// NewVoteBoard returns a vote accumulator for n positions.
func NewVoteBoard(n int) *VoteBoard {
	return &VoteBoard{zero: make([]float64, n), one: make([]float64, n)}
}

// Len returns the number of positions.
func (v *VoteBoard) Len() int { return len(v.zero) }

// Vote adds weight w to the tally for bit value at position pos.
// Votes with non-positive weight are ignored.
func (v *VoteBoard) Vote(pos int, bit bool, w float64) {
	if pos < 0 || pos >= len(v.zero) || w <= 0 {
		return
	}
	if bit {
		v.one[pos] += w
	} else {
		v.zero[pos] += w
	}
}

// Resolve returns the majority bit string over all positions. Positions
// with no votes or tied votes resolve to 0.
func (v *VoteBoard) Resolve() Bits {
	out := New(len(v.zero))
	for i := range v.zero {
		if v.one[i] > v.zero[i] {
			out.setInPlace(i, true)
		}
	}
	return out
}

// FoldInto collapses a replicated board (length l·markLen) into a markLen
// board by summing tallies across replicas, implementing the outer
// MajorVot(wmd) of the paper's Detection with weighted votes preserved.
func (v *VoteBoard) FoldInto(markLen int) (*VoteBoard, error) {
	if markLen <= 0 {
		return nil, errors.New("bitstr: markLen must be positive")
	}
	if len(v.zero)%markLen != 0 {
		return nil, fmt.Errorf("bitstr: board length %d not a multiple of %d", len(v.zero), markLen)
	}
	out := NewVoteBoard(markLen)
	for i := range v.zero {
		out.zero[i%markLen] += v.zero[i]
		out.one[i%markLen] += v.one[i]
	}
	return out, nil
}

// Confidence returns, per position, the margin |one-zero| / (one+zero),
// or 0 for positions without votes. It is a diagnostic for detection
// strength.
func (v *VoteBoard) Confidence() []float64 {
	out := make([]float64, len(v.zero))
	for i := range v.zero {
		tot := v.zero[i] + v.one[i]
		if tot > 0 {
			d := v.one[i] - v.zero[i]
			if d < 0 {
				d = -d
			}
			out[i] = d / tot
		}
	}
	return out
}

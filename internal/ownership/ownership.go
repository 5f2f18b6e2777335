// Package ownership implements the paper's resolution of the rightful
// ownership problem (§5.4, Figure 10). The insight is specific to the
// integrated framework: the identifying columns of a binned table are
// encrypted, so only the true owner can decrypt them. The mark is
// therefore derived as wm = F(v), where v is a statistic (the mean) of
// the clear-text identifying column and F a one-way function. In a
// dispute the claimed owner presents v, decrypts the identifying column
// to recompute v', shows |v − v'| < τ, and shows the detected mark equals
// F(v). An attacker who inserted a bogus mark (Attack 1) or "extracted" a
// bogus original (Attack 2) cannot decrypt the identifiers, so his v'
// computation fails and his mark is not F of any verifiable statistic.
//
// The statistic is used instead of the exact clear-texts because "most
// probably, the watermarked table in dispute had been attacked, e.g.,
// some tuples were deleted or some spurious tuples were added" — a mean
// over the surviving rows stays within τ of the original mean.
package ownership

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/relation"
)

// maxIdentDigits caps the digit string numericOf parses. float64 holds
// every integer up to 2^53 (~9.0e15) exactly; concatenating more than 15
// digits would round the value, so two identifiers differing only in
// their tail could silently collapse to the same float — skewing the
// mean v the mark commits to in a platform- and length-dependent way.
// Truncating to the first 15 digits is deterministic and lossless.
const maxIdentDigits = 15

// MinNumericFraction is the smallest fraction of identifying values that
// must parse as numeric for IdentStatistic to be meaningful. A mean over
// a sliver of the column would commit the mark to a statistic dominated
// by whatever subset happened to contain digits — an unstable anchor an
// attacker could shift by deleting a handful of rows.
const MinNumericFraction = 0.5

// ErrNonNumericIdentifiers marks an identifying column whose numeric
// fraction is below MinNumericFraction (or zero); callers classify with
// errors.Is.
var ErrNonNumericIdentifiers = fmt.Errorf("ownership: identifying values are not sufficiently numeric")

// IdentStatistic computes v: the mean of the numeric interpretations of
// the clear-text identifying values (digits extracted from formats like
// "123-45-6789", capped at maxIdentDigits for exact float64 arithmetic).
// It errors (wrapping ErrNonNumericIdentifiers) when fewer than
// MinNumericFraction of the values are numeric — a mean over a small
// accidental subset would be a meaningless commitment.
func IdentStatistic(cleartexts []string) (float64, error) {
	var a StatAccum
	for _, s := range cleartexts {
		a.Add(s)
	}
	return a.Statistic()
}

// StatAccum accumulates the IdentStatistic incrementally — the
// streaming planner feeds it identifying values segment by segment
// without ever materializing the column. Values accumulate in row
// order, so the float sum (and therefore the mean) is bitwise-identical
// to IdentStatistic over the concatenated column.
type StatAccum struct {
	sum   float64
	n     int
	total int
}

// Add folds one identifying value into the statistic.
func (a *StatAccum) Add(value string) {
	a.total++
	v, ok := numericOf(value)
	if !ok {
		return
	}
	a.sum += v
	a.n++
}

// Statistic returns the mean v over the values added so far, failing
// (wrapping ErrNonNumericIdentifiers) when fewer than
// MinNumericFraction of them are numeric.
func (a *StatAccum) Statistic() (float64, error) {
	if a.n == 0 {
		return 0, fmt.Errorf("%w: no numeric values among %d", ErrNonNumericIdentifiers, a.total)
	}
	if frac := float64(a.n) / float64(a.total); frac < MinNumericFraction {
		return 0, fmt.Errorf("%w: only %d of %d values (%.0f%%) are numeric, need >= %.0f%%",
			ErrNonNumericIdentifiers, a.n, a.total, frac*100, MinNumericFraction*100)
	}
	return a.sum / float64(a.n), nil
}

// numericOf reads the first maxIdentDigits ASCII digits of s as one
// decimal integer, allocating nothing. The integer is below 2^53, so its
// float64 is exact.
func numericOf(s string) (float64, bool) {
	var u uint64
	n := 0
	for i := 0; i < len(s) && n < maxIdentDigits; i++ {
		if c := s[i]; c >= '0' && c <= '9' {
			u = 10*u + uint64(c-'0')
			n++
		}
	}
	return float64(u), n > 0
}

// MarkFromStatistic is the one-way function F: it derives a markLen-bit
// mark from the statistic v. Rounding quantizes v so that attack-induced
// drift below quantum maps to the same mark the owner committed to.
func MarkFromStatistic(v float64, quantum float64, markLen int) (bitstr.Bits, error) {
	return MarkFromStatisticSalted(v, quantum, markLen, "")
}

// MarkFromStatisticSalted is F with a recipient salt: the multi-recipient
// fingerprinting extension derives each outsourced copy's mark as
// F(v, recipientID), so a leaked copy identifies its recipient by which
// registered mark its votes reconstruct, while every mark stays a
// one-way commitment to the same verifiable statistic v. An empty salt
// is exactly MarkFromStatistic — the single-recipient §5.4 mark.
func MarkFromStatisticSalted(v float64, quantum float64, markLen int, salt string) (bitstr.Bits, error) {
	if markLen < 1 {
		return bitstr.Bits{}, fmt.Errorf("ownership: markLen must be >= 1")
	}
	if quantum <= 0 {
		return bitstr.Bits{}, fmt.Errorf("ownership: quantum must be positive")
	}
	q := int64(math.Round(v / quantum))
	prf := crypt.NewPRF([]byte("ownership/F/v1"))
	var digest []byte
	if salt == "" {
		digest = prf.Sum([]byte(strconv.FormatInt(q, 10)))
	} else {
		digest = prf.Sum([]byte(strconv.FormatInt(q, 10)), []byte(salt))
	}
	return bitstr.FromBytes(digest, markLen)
}

// OwnerMark derives the owner's mark directly from the original table's
// identifying column: v = IdentStatistic, wm = F(v). It returns both.
func OwnerMark(original *relation.Table, identCol string, quantum float64, markLen int) (bitstr.Bits, float64, error) {
	col, err := original.Column(identCol)
	if err != nil {
		return bitstr.Bits{}, 0, err
	}
	v, err := IdentStatistic(col)
	if err != nil {
		return bitstr.Bits{}, 0, err
	}
	wm, err := MarkFromStatistic(v, quantum, markLen)
	return wm, v, err
}

// Claim is one party's ownership assertion over a disputed table.
type Claim struct {
	// Claimant names the party (for reporting).
	Claimant string
	// V is the statistic the party claims the mark derives from.
	V float64
	// Key is the party's watermarking key set (including the encryption
	// key for the identifying columns).
	Key crypt.WatermarkKey
	// Mark is the mark the party claims to have embedded: it must be F(V).
	Mark bitstr.Bits
	// Duplication is the replication factor l of the claimed embedding;
	// 0 means the disputed release's own. The rest of the embedding
	// policy is always the release's.
	Duplication int
}

// Verdict is the court's finding for one claim.
type Verdict struct {
	Claimant string
	// DecryptOK: the party's key decrypts the identifying column.
	DecryptOK bool
	// StatisticOK: |v − v'| < τ over the decrypted identifiers.
	StatisticOK bool
	// MarkDerived: the party's claimed mark equals F(v).
	MarkDerived bool
	// MarkDetected: detection under the party's key recovers a mark
	// within lossThreshold of F(v).
	MarkDetected bool
	// MarkLoss is the detected mark's loss against F(v).
	MarkLoss float64
	// Valid is the conjunction — the claim stands.
	Valid bool
	// Reason explains a failed claim.
	Reason string
}

// Judge arbitrates ownership of the disputed table (§5.4): for each
// claim it (1) decrypts the identifying column with the claimant's key,
// (2) recomputes the statistic v' and checks |v−v'| < tau, (3) re-derives
// F(v) and checks the claimed mark (Commit), and (4) compares the mark
// detected under the claimant's key with F(v) under the loss threshold
// (Conclude). Detection itself is the caller's: one read of the
// disputed table serves every claim Commit passes.
type Judge struct {
	// IdentCol names the encrypted identifying column.
	IdentCol string
	// Tau is the statistic tolerance τ.
	Tau float64
	// Quantum is F's quantization step (must match the owner's).
	Quantum float64
	// LossThreshold is the maximal mark loss accepted as a match.
	LossThreshold float64
}

// Commit runs steps (1)–(3) for every claim over the disputed table and
// returns one verdict per claim, in order. A verdict with MarkDerived
// set awaits step (4), Conclude; any other is final. Claims holding the
// same encryption key share one decryption of the identifying column.
// No further claims are evaluated once ctx is done.
func (j Judge) Commit(ctx context.Context, disputed *relation.Table, claims []Claim) ([]Verdict, error) {
	if j.Tau <= 0 || j.Quantum <= 0 {
		return nil, fmt.Errorf("ownership: Tau and Quantum must be positive")
	}
	if j.LossThreshold < 0 || j.LossThreshold >= 0.5 {
		return nil, fmt.Errorf("ownership: LossThreshold must be in [0, 0.5)")
	}
	encCol, err := disputed.Column(j.IdentCol)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]*decryption)
	verdicts := make([]Verdict, 0, len(claims))
	for _, claim := range claims {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, ok := byKey[string(claim.Key.Enc)]
		if !ok {
			d = decrypt(encCol, claim.Key.Enc)
			byKey[string(claim.Key.Enc)] = d
		}
		verdicts = append(verdicts, j.commitOne(d, claim))
	}
	return verdicts, nil
}

// decryption is step (1) under one encryption key: how many of the
// identifying values the key decrypts, and the statistic over their
// clear-texts in row order.
type decryption struct {
	err       error // the cipher could not be built
	decrypted int
	total     int
	stat      StatAccum
}

func decrypt(encCol []string, encKey []byte) *decryption {
	d := &decryption{total: len(encCol)}
	cipher, err := crypt.NewCipher(encKey)
	if err != nil {
		d.err = err
		return d
	}
	var pt []byte
	for _, token := range encCol {
		var err error
		if pt, err = cipher.AppendDecryptString(pt[:0], token); err == nil {
			d.decrypted++
			d.stat.Add(string(pt))
		}
	}
	return d
}

func (j Judge) commitOne(d *decryption, claim Claim) Verdict {
	v := Verdict{Claimant: claim.Claimant}

	// (1) Decrypt the identifying column with the claimant's key.
	if d.err != nil {
		v.Reason = fmt.Sprintf("cannot build cipher: %v", d.err)
		return v
	}
	// Attackers may have added bogus tuples: tolerate a minority of
	// undecryptable cells, but an owner must decrypt most of the table.
	if d.decrypted == 0 || d.total-d.decrypted > d.total/2 {
		v.Reason = fmt.Sprintf("key decrypts only %d of %d identifying values", d.decrypted, d.total)
		return v
	}
	v.DecryptOK = true

	// (2) Statistic check: |v − v'| < τ.
	vPrime, err := d.stat.Statistic()
	if err != nil {
		v.Reason = err.Error()
		return v
	}
	if math.Abs(claim.V-vPrime) >= j.Tau {
		v.Reason = fmt.Sprintf("statistic mismatch: claimed %v, recomputed %v, tau %v", claim.V, vPrime, j.Tau)
		return v
	}
	v.StatisticOK = true

	// (3) The claimed mark must be F(v) — the one-way commitment that
	// defeats Attack 2 (no one can invert F to fabricate a fitting v).
	fv, err := MarkFromStatistic(claim.V, j.Quantum, claim.Mark.Len())
	if err != nil {
		v.Reason = err.Error()
		return v
	}
	if !claim.Mark.Equal(fv) {
		v.Reason = "claimed mark is not F(v)"
		return v
	}
	v.MarkDerived = true
	return v
}

// Conclude is step (4) for a verdict Commit left with MarkDerived set:
// the mark detected under the claimant's key against the committed mark
// F(v), the claim's Mark. detectErr, when set, is why detection could
// not run for this claim.
func (j Judge) Conclude(v *Verdict, committed, detected bitstr.Bits, detectErr error) {
	if detectErr != nil {
		v.Reason = fmt.Sprintf("detection failed: %v", detectErr)
		return
	}
	loss, err := committed.LossFraction(detected)
	if err != nil {
		v.Reason = err.Error()
		return
	}
	v.MarkLoss = loss
	if loss > j.LossThreshold {
		v.Reason = fmt.Sprintf("mark loss %.2f exceeds threshold %.2f", loss, j.LossThreshold)
		return
	}
	v.MarkDetected = true
	v.Valid = true
}

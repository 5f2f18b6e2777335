package bitstr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	b := New(13)
	if b.Len() != 13 {
		t.Fatalf("Len = %d, want 13", b.Len())
	}
	for i := 0; i < 13; i++ {
		if b.Get(i) {
			t.Errorf("bit %d set in fresh string", i)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative length")
		}
	}()
	New(-1)
}

func TestFromStringRoundtrip(t *testing.T) {
	cases := []string{"", "0", "1", "10110", "0000011111", "101010101010101010101"}
	for _, s := range cases {
		b, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if got := b.String(); got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
}

func TestFromStringInvalid(t *testing.T) {
	if _, err := FromString("01x1"); err == nil {
		t.Fatal("expected error for invalid rune")
	}
}

func TestFromBytes(t *testing.T) {
	b, err := FromBytes([]byte{0b10110101}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// LSB-first: 1,0,1,0,1,1,0,1
	if b.String() != "10101101" {
		t.Fatalf("got %s, want 10101101", b.String())
	}
	if _, err := FromBytes([]byte{0xff}, 9); err == nil {
		t.Fatal("expected error: too few source bits")
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mustBits("101").Get(3)
}

func TestEqualAndHamming(t *testing.T) {
	a := mustBits("10110")
	b := mustBits("10011")
	if a.Equal(b) {
		t.Error("unexpected Equal")
	}
	if !a.Equal(a) {
		t.Error("self not Equal")
	}
	d, err := a.Hamming(b)
	if err != nil || d != 2 {
		t.Errorf("Hamming = %d, %v; want 2, nil", d, err)
	}
	if _, err := a.Hamming(mustBits("1")); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestLossFraction(t *testing.T) {
	a := mustBits("1111")
	b := mustBits("1100")
	f, err := a.LossFraction(b)
	if err != nil || f != 0.5 {
		t.Errorf("LossFraction = %v, %v; want 0.5, nil", f, err)
	}
	empty := New(0)
	if f, err := empty.LossFraction(empty); err != nil || f != 0 {
		t.Errorf("empty LossFraction = %v, %v", f, err)
	}
}

// mustBits is FromString for well-formed literals.
func mustBits(s string) Bits {
	b, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// decided reports whether any vote has been cast at position pos.
func decided(vb *VoteBoard, pos int) bool { return vb.zero[pos] > 0 || vb.one[pos] > 0 }

// majorityFold is the paper's MajorVot over a replicated bit string as
// detection runs it: one unit vote per position on a VoteBoard, folded
// to markLen positions and resolved.
func majorityFold(b Bits, markLen int) (Bits, error) {
	vb := NewVoteBoard(b.Len())
	for i := 0; i < b.Len(); i++ {
		vb.Vote(i, b.Get(i), 1)
	}
	folded, err := vb.FoldInto(markLen)
	if err != nil {
		return Bits{}, err
	}
	return folded.Resolve(), nil
}

func TestDuplicateAndMajorityFold(t *testing.T) {
	wm := mustBits("1011")
	wmd := wm.Duplicate(3)
	if wmd.Len() != 12 {
		t.Fatalf("Duplicate len = %d, want 12", wmd.Len())
	}
	if wmd.String() != "101110111011" {
		t.Fatalf("Duplicate = %s", wmd.String())
	}
	back, err := majorityFold(wmd, 4)
	if err != nil || !back.Equal(wm) {
		t.Fatalf("majority fold = %s, %v; want %s", back.String(), err, wm.String())
	}
	// Corrupt one replica entirely; majority of 3 still recovers.
	corrupt := mustBits("010010111011")
	back, err = majorityFold(corrupt, 4)
	if err != nil || !back.Equal(wm) {
		t.Fatalf("majority fold after corruption = %s, want %s", back.String(), wm.String())
	}
}

func TestMajorityFoldTieIsZero(t *testing.T) {
	// two replicas disagreeing at every position -> all zeros
	b := mustBits("11110000")
	out, err := majorityFold(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "0000" {
		t.Fatalf("tie fold = %s, want 0000", out.String())
	}
}

func TestDuplicatePanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mustBits("1").Duplicate(0)
}

func TestVoteBoardResolve(t *testing.T) {
	vb := NewVoteBoard(3)
	vb.Vote(0, true, 1)
	vb.Vote(0, true, 1)
	vb.Vote(0, false, 1)
	vb.Vote(1, false, 5)
	vb.Vote(1, true, 2)
	// position 2 untouched
	got := vb.Resolve()
	if got.String() != "100" {
		t.Fatalf("Resolve = %s, want 100", got.String())
	}
	if !decided(vb, 0) || decided(vb, 2) {
		t.Error("decided wrong")
	}
	if z, o := vb.zero[1], vb.one[1]; z != 5 || o != 2 {
		t.Errorf("votes at 1 = %v,%v; want 5,2", z, o)
	}
}

func TestVoteBoardIgnoresBadVotes(t *testing.T) {
	vb := NewVoteBoard(2)
	vb.Vote(-1, true, 1)
	vb.Vote(2, true, 1)
	vb.Vote(0, true, 0)
	vb.Vote(0, true, -3)
	if decided(vb, 0) || decided(vb, 1) {
		t.Error("invalid votes should be ignored")
	}
}

func TestVoteBoardFoldInto(t *testing.T) {
	vb := NewVoteBoard(6) // 2 replicas of 3 positions
	vb.Vote(0, true, 1)
	vb.Vote(3, true, 1) // replica of position 0
	vb.Vote(1, false, 2)
	vb.Vote(4, true, 1) // conflicting replica, lower weight
	folded, err := vb.FoldInto(3)
	if err != nil {
		t.Fatal(err)
	}
	got := folded.Resolve()
	if got.String() != "100" {
		t.Fatalf("folded Resolve = %s, want 100", got.String())
	}
	if _, err := vb.FoldInto(4); err == nil {
		t.Error("expected non-multiple error")
	}
	if _, err := vb.FoldInto(0); err == nil {
		t.Error("expected positive error")
	}
}

func TestVoteBoardConfidence(t *testing.T) {
	vb := NewVoteBoard(2)
	vb.Vote(0, true, 3)
	vb.Vote(0, false, 1)
	conf := vb.Confidence()
	if conf[0] != 0.5 {
		t.Errorf("confidence[0] = %v, want 0.5", conf[0])
	}
	if conf[1] != 0 {
		t.Errorf("confidence[1] = %v, want 0", conf[1])
	}
}

// Property: String/FromString roundtrip for arbitrary bit patterns.
func TestQuickStringRoundtrip(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw) * 8
		b, err := FromBytes(raw, n)
		if err != nil {
			return false
		}
		back, err := FromString(b.String())
		return err == nil && back.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Duplicate then the majority fold is the identity for any factor >= 1.
func TestQuickDuplicateFoldIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(raw []byte, lRaw uint8) bool {
		n := len(raw) * 8
		if n == 0 {
			return true
		}
		l := int(lRaw)%5 + 1
		b, err := FromBytes(raw, n)
		if err != nil {
			return false
		}
		folded, err := majorityFold(b.Duplicate(l), n)
		return err == nil && folded.Equal(b)
	}
	cfg := &quick.Config{Rand: rng, MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Hamming distance is a metric on equal-length strings
// (symmetry and identity checked; triangle inequality over triples).
func TestQuickHammingMetric(t *testing.T) {
	f := func(x, y, z [4]byte) bool {
		a, _ := FromBytes(x[:], 32)
		b, _ := FromBytes(y[:], 32)
		c, _ := FromBytes(z[:], 32)
		ab, _ := a.Hamming(b)
		ba, _ := b.Hamming(a)
		aa, _ := a.Hamming(a)
		ac, _ := a.Hamming(c)
		cb, _ := c.Hamming(b)
		return ab == ba && aa == 0 && ab <= ac+cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

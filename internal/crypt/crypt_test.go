package crypt

import (
	"bytes"
	"encoding/base64"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// token and open are the string round trip through the cipher's append
// forms; sealRaw and openRaw are the same on the decoded
// iv || ciphertext || tag bytes, for tests that tamper with them.
func token(c *Cipher, pt string) string { return string(c.AppendEncryptString(nil, pt)) }

func open(c *Cipher, tok string) (string, error) {
	pt, err := c.AppendDecryptString(nil, tok)
	return string(pt), err
}

func sealRaw(c *Cipher, pt []byte) []byte {
	raw, err := base64.RawURLEncoding.DecodeString(token(c, string(pt)))
	if err != nil {
		panic(err)
	}
	return raw
}

func openRaw(c *Cipher, raw []byte) ([]byte, error) {
	return c.AppendDecryptString(nil, base64.RawURLEncoding.EncodeToString(raw))
}

func TestPRFDeterministic(t *testing.T) {
	p := NewPRF([]byte("key"))
	a := p.Sum([]byte("hello"))
	b := p.Sum([]byte("hello"))
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	if len(a) != 32 {
		t.Fatalf("sum length = %d, want 32", len(a))
	}
}

func TestPRFKeySeparation(t *testing.T) {
	a := NewPRF([]byte("k1")).Sum([]byte("x"))
	b := NewPRF([]byte("k2")).Sum([]byte("x"))
	if bytes.Equal(a, b) {
		t.Fatal("different keys produced equal digests")
	}
}

func TestPRFPartsAreUnambiguous(t *testing.T) {
	p := NewPRF([]byte("key"))
	// ("ab","c") must differ from ("a","bc") — length prefixing.
	if bytes.Equal(p.Sum([]byte("ab"), []byte("c")), p.Sum([]byte("a"), []byte("bc"))) {
		t.Fatal("part boundaries are ambiguous")
	}
	// ("x") must differ from ("x","").
	if bytes.Equal(p.Sum([]byte("x")), p.Sum([]byte("x"), nil)) {
		t.Fatal("empty trailing part is ambiguous")
	}
}

func TestPRFModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPRF([]byte("k")).Mod(0, []byte("x"))
}

func TestSelectsFraction(t *testing.T) {
	p := NewPRF([]byte("selection-key"))
	const n = 20000
	const eta = 50
	hits := 0
	for i := 0; i < n; i++ {
		ident := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		if p.Selects(ident, eta) {
			hits++
		}
	}
	want := float64(n) / float64(eta)
	got := float64(hits)
	// within 25% relative error — binomial std-dev is ~20 here
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("selection rate %v, want about %v", got, want)
	}
}

func TestSelectsEtaEdge(t *testing.T) {
	p := NewPRF([]byte("k"))
	if p.Selects([]byte("x"), 0) {
		t.Error("eta=0 must select nothing")
	}
	if !p.Selects([]byte("x"), 1) {
		t.Error("eta=1 must select everything")
	}
}

func TestCipherRoundtrip(t *testing.T) {
	c, err := NewCipher([]byte("master"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []string{"", "a", "123-45-6789", "a longer identifying value with spaces"} {
		tok := token(c, pt)
		back, err := open(c, tok)
		if err != nil {
			t.Fatalf("decrypt %q: %v", pt, err)
		}
		if back != pt {
			t.Fatalf("roundtrip %q -> %q", pt, back)
		}
	}
}

func TestCipherDeterministicOneToOne(t *testing.T) {
	c, err := NewCipher([]byte("master"))
	if err != nil {
		t.Fatal(err)
	}
	a := token(c, "ssn-001")
	b := token(c, "ssn-001")
	d := token(c, "ssn-002")
	if a != b {
		t.Error("encryption not deterministic")
	}
	if a == d {
		t.Error("distinct plaintexts collided")
	}
}

func TestCipherKeySeparation(t *testing.T) {
	c1, _ := NewCipher([]byte("master-1"))
	c2, _ := NewCipher([]byte("master-2"))
	tok := token(c1, "ssn-001")
	if _, err := open(c2, tok); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("wrong-key decrypt error = %v, want ErrAuthentication", err)
	}
}

func TestCipherTamperDetection(t *testing.T) {
	c, _ := NewCipher([]byte("master"))
	raw := sealRaw(c, []byte("patient-7"))
	for i := 0; i < len(raw); i++ {
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[i] ^= 0x01
		if _, err := openRaw(c, mut); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestCipherShortCiphertext(t *testing.T) {
	c, _ := NewCipher([]byte("master"))
	if _, err := openRaw(c, []byte("short")); !errors.Is(err, ErrCiphertextFormat) {
		t.Fatalf("error = %v, want ErrCiphertextFormat", err)
	}
	if _, err := open(c, "!!! not base64 !!!"); !errors.Is(err, ErrCiphertextFormat) {
		t.Fatalf("error = %v, want ErrCiphertextFormat", err)
	}
}

func TestWatermarkKeyDerivation(t *testing.T) {
	k := NewWatermarkKeyFromSecret("hospital-secret", 75)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	k2 := NewWatermarkKeyFromSecret("hospital-secret", 75)
	if !bytes.Equal(k.K1, k2.K1) || !bytes.Equal(k.K2, k2.K2) || !bytes.Equal(k.Enc, k2.Enc) {
		t.Error("derivation not deterministic")
	}
	other := NewWatermarkKeyFromSecret("different", 75)
	if bytes.Equal(k.K1, other.K1) {
		t.Error("different secrets collided")
	}
	if bytes.Equal(k.K1, k.K2) {
		t.Error("K1 must differ from K2")
	}
}

func TestWatermarkKeyValidate(t *testing.T) {
	cases := []struct {
		name string
		k    WatermarkKey
	}{
		{"empty K1", WatermarkKey{K2: []byte("b"), Eta: 1}},
		{"empty K2", WatermarkKey{K1: []byte("a"), Eta: 1}},
		{"equal keys", WatermarkKey{K1: []byte("a"), K2: []byte("a"), Eta: 1}},
		{"zero eta", WatermarkKey{K1: []byte("a"), K2: []byte("b"), Eta: 0}},
	}
	for _, tc := range cases {
		if err := tc.k.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// Property: Decrypt(Encrypt(x)) == x for arbitrary byte strings.
func TestQuickCipherRoundtrip(t *testing.T) {
	c, err := NewCipher([]byte("quick-master"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(pt []byte) bool {
		back, err := openRaw(c, sealRaw(c, pt))
		return err == nil && bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PRF.Mod output is always < m.
func TestQuickModRange(t *testing.T) {
	p := NewPRF([]byte("k"))
	f := func(data []byte, mRaw uint16) bool {
		m := uint64(mRaw)%1000 + 1
		return p.Mod(m, data) < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

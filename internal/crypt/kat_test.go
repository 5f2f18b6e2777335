package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/base64"
	"encoding/hex"
	"testing"
)

// katKey keys every known-answer vector below.
var katKey = []byte("medshield known-answer key")

// katPlaintext is an n-byte plaintext cycling through digits, '-' and
// lower-case letters.
func katPlaintext(n int) string {
	const alphabet = "0123456789-abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[i%len(alphabet)]
	}
	return string(b)
}

// TestEncryptKnownAnswers pins E's published tokens across plaintext
// lengths that reach zero, one, several and partial CTR blocks; the
// golden release hashes only cover 11-byte identifiers.
func TestEncryptKnownAnswers(t *testing.T) {
	c, err := NewCipher(katKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n     int
		token string
	}{
		{0, "J9XU8JTNgng25oG3URH1RFUuJ3jKTNEGnfMnuvlXE8Y"},
		{1, "LVVEgn2M7ovuN_pK8o5kaQ3jF1DBxCGOIMjrOTcNeQ6O"},
		{11, "BprERoAD-D00R0EY4RAaTEBeiWdrm2cibn9X6PgRUoRj8Jq8Da104tsTrQ"},
		{15, "v5m7v_x7c80OwD5ZMU5gwy36bg1bvKQSwAA2sbfO1Vss-3oao1ndffLN8v_FFw4"},
		{16, "JPG7Lriv6tlxFYVPOQwx2Gbgydn3olrojm4exY-zVbWEmE9rGdT3lg8TzxnF1z4N"},
		{17, "BMZAhx5ZqNibro-bKlE15wcD3hn25Sptn-gtuaHBioulRKe4fANNQVcZFe92SXEx_A"},
		{31, "b1qaTVIJ-nI6G5PH-edXa4Ww7585176RXjr1bE4ZkbARdnVT2CmUcI6JLDBaCJ2TIv5rZTfanrGPfwfK5tMo"},
		{32, "YjOfypJVa1Y6nGfm5tli92tTs5n6cM0iv_c4CoN-8DHHuF8N-OuBLVvqe2VX-HSsLZZ1eB8e7pk8KZe3piheNw"},
		{33, "CZfN-2Ob4nIfUBV7Ck1nuuAWMWnzpncW0CHdbLLEkOfiY8YCdrkW31_-I-4mEjOyWiwoRX8ItQcf2LPpiTT61Gs"},
		{64, "K0k_ZlPxw6DhcF-RT1Vi6iczKxrN9gAkiPKTlSMU4oBWza2TEdbi56iQaJskOVbMhHDlrqjQcdXUvzL9LMiKFQ6PIwJs3C4o66gc7X-NdEzAKJEjX6Mm2XkfsgDqYfDK"},
	} {
		pt := katPlaintext(tc.n)
		if got := token(c, pt); got != tc.token {
			t.Errorf("AppendEncryptString(%d bytes) = %q, want %q", tc.n, got, tc.token)
		}
		if back, err := open(c, tc.token); err != nil || back != pt {
			t.Errorf("AppendDecryptString(%d-byte token) = %q, %v", tc.n, back, err)
		}
	}
}

// TestPRFKnownAnswers pins H's digests, including the length-prefix
// framing of multiple and empty parts.
func TestPRFKnownAnswers(t *testing.T) {
	p := NewPRF(katKey)
	for _, tc := range []struct {
		parts [][]byte
		sum   string
	}{
		{nil, "019702ffacc9de5a5bb30e928878c8894dd5205f9cbb531d6d9662969c0092bb"},
		{[][]byte{[]byte("123-45-6789")}, "0906dd6074c0e100e5fa9625291ed697a158c558e5871f94645da40f1a9f87c6"},
		{[][]byte{[]byte("a"), []byte("bc"), nil}, "3a046e05b0514ae38ccafeb01a55d790e3808512d5113b693321687e3ab57e37"},
	} {
		if got := hex.EncodeToString(p.Sum(tc.parts...)); got != tc.sum {
			t.Errorf("Sum(%q) = %s, want %s", tc.parts, got, tc.sum)
		}
	}
	if got := p.Uint64([]byte("123-45-6789")); got != 650450602547011840 {
		t.Errorf("Uint64(ssn) = %d", got)
	}
	if got := p.Uint64([]byte("pos"), []byte("age")); got != 5921895203396424146 {
		t.Errorf("Uint64(pos, age) = %d", got)
	}
}

// referenceToken is E built from crypto/cipher's CTR stream, for the
// allocation-free encryptor to be compared against.
func referenceToken(c *Cipher, plaintext []byte) string {
	iv := c.ivPRF.Sum(plaintext)[:aes.BlockSize]
	body := append(append([]byte(nil), iv...), plaintext...)
	cipher.NewCTR(c.block, iv).XORKeyStream(body[aes.BlockSize:], plaintext)
	raw := append(body, c.tagPRF.Sum(body)[:tagLen]...)
	return base64.RawURLEncoding.EncodeToString(raw)
}

func FuzzAppendEncryptMatchesReference(f *testing.F) {
	for _, n := range []int{0, 1, 11, 16, 17, 64} {
		f.Add([]byte("prefix,"), katPlaintext(n))
	}
	f.Add([]byte(nil), "123-45-6789")
	c, err := NewCipher(katKey)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, prefix []byte, plaintext string) {
		want := string(prefix) + referenceToken(c, []byte(plaintext))
		dst := append([]byte(nil), prefix...)
		if got := string(c.AppendEncryptString(dst, plaintext)); got != want {
			t.Fatalf("AppendEncryptString(%q, %q) = %q, want %q", prefix, plaintext, got, want)
		}
		if got := token(c, plaintext); got != want[len(prefix):] {
			t.Fatalf("AppendEncryptString(nil, %q) = %q, want %q", plaintext, got, want[len(prefix):])
		}
		back, err := c.AppendDecryptString(dst[:len(prefix)], want[len(prefix):])
		if err != nil || string(back) != string(prefix)+plaintext {
			t.Fatalf("AppendDecryptString(%q, token of %q) = %q, %v", prefix, plaintext, back, err)
		}
	})
}

// TestKeyStreamCounterCarry starts the CTR counter at an all-0xff tail,
// so the big-endian increment carries across bytes and wraps the whole
// block, and checks the keystream against crypto/cipher's CTR.
func TestKeyStreamCounterCarry(t *testing.T) {
	c, err := NewCipher(katKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range [][]byte{
		bytes.Repeat([]byte{0xff}, aes.BlockSize),
		append(bytes.Repeat([]byte{0x01}, 8), bytes.Repeat([]byte{0xff}, 8)...),
		append(bytes.Repeat([]byte{0x7f}, 13), 0xff, 0xff, 0xfe),
	} {
		src := []byte(katPlaintext(5*aes.BlockSize + 3))
		want := make([]byte, len(src))
		cipher.NewCTR(c.block, iv).XORKeyStream(want, src)
		var s sealScratch
		s.ctr = [aes.BlockSize]byte(iv)
		got := append([]byte(nil), src...)
		c.xorKeyStream(&s, got)
		if !bytes.Equal(got, want) {
			t.Errorf("iv %x: keystream differs from crypto/cipher CTR", iv)
		}
	}
}

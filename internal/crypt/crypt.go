// Package crypt provides the cryptographic substrate of the framework:
//
//   - H, the keyed hash the paper uses for secret tuple selection
//     (Equation 5: H(ti.ident, k1) mod η = 0) and for pseudorandom index
//     derivation inside Permutate. The paper suggests MD5 or SHA1; we use
//     HMAC-SHA256, which keeps the required keyed-PRF contract with modern
//     primitives.
//
//   - E, the one-to-one encryption the binning algorithm applies to
//     identifying columns (Figure 8: ti.ident.val ← E(ti.ident.val)).
//     The paper suggests DES or AES; we implement deterministic
//     authenticated encryption: AES-256-CTR under a synthetic IV derived
//     from the plaintext (SIV-style), so equal plaintexts map to equal
//     ciphertexts (one-to-one replacement, required so that the encrypted
//     identifier is a stable embedding anchor) and tampering is detected
//     on decryption. Determinism over unique identifiers (SSNs) leaks
//     nothing beyond equality, and identifiers are unique by definition.
//
// Both run once per tuple, so neither allocates per call: PRF.Uint64,
// Mod and Selects evaluate H on pooled state, and
// Cipher.AppendEncryptString and AppendDecryptString encrypt and decrypt
// into the caller's buffer on pooled scratch. Sum allocates only the
// digest it returns.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// Errors returned by AppendDecryptString.
var (
	ErrCiphertextFormat = errors.New("crypt: malformed ciphertext")
	ErrAuthentication   = errors.New("crypt: authentication failed")
)

// PRF is the keyed hash H of the paper. It is safe for concurrent use.
type PRF struct {
	key []byte
	// states pools one evaluation's state: a keyed HMAC plus its
	// length-prefix and digest buffers. hmac.New re-hashes the key into
	// the inner/outer pads on every call (~2 extra compressions plus
	// several allocations), which dominates hot loops that evaluate H
	// once per tuple (watermark selection, position addressing). A pooled
	// HMAC is Reset between uses — crypto/hmac restores the precomputed
	// pads from their marshaled form, so the output is bit-identical to a
	// fresh HMAC while skipping the key schedule — and the buffers living
	// beside it keep an evaluation free of allocations.
	states sync.Pool
}

// prfState is one pooled evaluation of H.
type prfState struct {
	mac    hash.Hash
	prefix [8]byte
	sum    [sha256.Size]byte
}

// NewPRF returns a PRF keyed with key. The key may be any length; it is
// used as an HMAC-SHA256 key.
func NewPRF(key []byte) *PRF {
	k := make([]byte, len(key))
	copy(k, key)
	p := &PRF{key: k}
	p.states.New = func() any { return &prfState{mac: hmac.New(sha256.New, p.key)} }
	return p
}

// digest writes the first len(dst) bytes (at most sha256.Size) of
// Sum(parts...) into dst, allocating nothing.
func (p *PRF) digest(dst []byte, parts ...[]byte) {
	st := p.states.Get().(*prfState)
	for _, part := range parts {
		binary.BigEndian.PutUint64(st.prefix[:], uint64(len(part)))
		st.mac.Write(st.prefix[:])
		st.mac.Write(part)
	}
	copy(dst, st.mac.Sum(st.sum[:0]))
	st.mac.Reset()
	p.states.Put(st)
}

// Sum returns HMAC-SHA256(key, len(parts[0]) || parts[0] || len(parts[1])
// || parts[1] ...), each length an 8-byte big-endian prefix that keeps
// concatenations unambiguous. The result is a fresh slice the caller
// owns.
func (p *PRF) Sum(parts ...[]byte) []byte {
	out := make([]byte, sha256.Size)
	p.digest(out, parts...)
	return out
}

// Uint64 interprets the first 8 bytes of Sum(parts...) as a big-endian
// unsigned integer. This is the H(·) value used modulo η or |S| in the
// watermarking algorithms.
func (p *PRF) Uint64(parts ...[]byte) uint64 {
	var b [8]byte
	p.digest(b[:], parts...)
	return binary.BigEndian.Uint64(b[:])
}

// Mod returns Uint64(parts...) mod m. m must be positive.
func (p *PRF) Mod(m uint64, parts ...[]byte) uint64 {
	if m == 0 {
		panic("crypt: modulus must be positive")
	}
	return p.Uint64(parts...) % m
}

// Selects implements the paper's Equation (5): it reports whether the
// tuple identified by ident is selected for embedding under parameter η.
// η == 1 selects every tuple; larger η selects roughly a 1/η fraction.
func (p *PRF) Selects(ident []byte, eta uint64) bool {
	if eta == 0 {
		return false
	}
	return p.Mod(eta, ident) == 0
}

// Cipher is the deterministic authenticated encryption E() applied to
// identifying columns. It is safe for concurrent use.
type Cipher struct {
	block  cipher.Block
	ivPRF  *PRF
	tagPRF *PRF
	// scratch pools sealScratch buffers, so encrypting or decrypting
	// into a caller's buffer allocates nothing.
	scratch sync.Pool
}

// sealScratch is one encryption's or decryption's working memory: the
// iv || ciphertext || tag buffer, the token being decoded, and the CTR
// counter and keystream blocks.
type sealScratch struct {
	raw []byte
	tok []byte
	ctr [aes.BlockSize]byte
	ks  [aes.BlockSize]byte
}

// NewCipher derives a Cipher from a master key of any length. Independent
// subkeys for encryption, IV synthesis and authentication are derived by
// domain-separated HMAC.
func NewCipher(masterKey []byte) (*Cipher, error) {
	root := NewPRF(masterKey)
	encKey := root.Sum([]byte("medshield/enc/v1"))
	block, err := aes.NewCipher(encKey) // 32 bytes -> AES-256
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	c := &Cipher{
		block:  block,
		ivPRF:  NewPRF(root.Sum([]byte("medshield/iv/v1"))),
		tagPRF: NewPRF(root.Sum([]byte("medshield/tag/v1"))),
	}
	c.scratch.New = func() any { return new(sealScratch) }
	return c, nil
}

const tagLen = 16

// zeroBlock is the room seal's callers leave for the IV (and, sliced to
// tagLen, the room seal appends for the tag).
var zeroBlock [aes.BlockSize]byte

// AppendEncryptString appends the token of plaintext to dst and returns
// the extended buffer: the unpadded URL-safe base64 of
// iv || AES-CTR(plaintext) || tag, with the synthetic IV derived from
// the plaintext, so equal plaintexts give equal tokens. It allocates
// nothing when dst has room for the token.
func (c *Cipher) AppendEncryptString(dst []byte, plaintext string) []byte {
	s := c.scratch.Get().(*sealScratch)
	s.raw = append(append(s.raw[:0], zeroBlock[:]...), plaintext...)
	s.raw = c.seal(s, s.raw)
	dst = base64.RawURLEncoding.AppendEncode(dst, s.raw)
	c.scratch.Put(s)
	return dst
}

// TokenLen returns the length of AppendEncryptString's token for
// plaintext: the base64 of a block of IV, the ciphertext (as long as
// the plaintext) and the tag. Distinct plaintexts give distinct tokens,
// so with TokenLen a caller can lay out every token of a dictionary
// before sealing the first.
func TokenLen(plaintext string) int {
	return base64.RawURLEncoding.EncodedLen(aes.BlockSize + len(plaintext) + tagLen)
}

// AppendDecryptString verifies a token of AppendEncryptString and
// appends its plaintext to dst, returning the extended buffer. It
// allocates nothing when dst has room for the plaintext. A token that
// is not base64 or too short fails with ErrCiphertextFormat, and one
// this key did not seal — a wrong key, a tampered or spliced token —
// with ErrAuthentication; on failure dst comes back unextended.
func (c *Cipher) AppendDecryptString(dst []byte, token string) ([]byte, error) {
	s := c.scratch.Get().(*sealScratch)
	defer c.scratch.Put(s)
	s.tok = append(s.tok[:0], token...)
	raw, err := base64.RawURLEncoding.AppendDecode(s.raw[:0], s.tok)
	s.raw = raw
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrCiphertextFormat, err)
	}
	if len(raw) < aes.BlockSize+tagLen {
		return dst, ErrCiphertextFormat
	}
	body, tag := raw[:len(raw)-tagLen], raw[len(raw)-tagLen:]
	c.tagPRF.digest(s.ks[:tagLen], body)
	if subtle.ConstantTimeCompare(tag, s.ks[:tagLen]) != 1 {
		return dst, ErrAuthentication
	}
	iv := body[:aes.BlockSize]
	n := len(dst)
	dst = append(dst, body[aes.BlockSize:]...)
	s.ctr = [aes.BlockSize]byte(iv)
	c.xorKeyStream(s, dst[n:])
	// SIV check: the IV must match the plaintext-derived IV, otherwise the
	// ciphertext was spliced from another message.
	c.ivPRF.digest(s.ks[:], dst[n:])
	if subtle.ConstantTimeCompare(iv, s.ks[:]) != 1 {
		return dst[:n], ErrAuthentication
	}
	return dst, nil
}

// seal is the SIV construction behind AppendEncryptString. raw holds
// aes.BlockSize bytes of room for the IV followed by the plaintext; seal
// writes the synthetic IV into the room, encrypts the plaintext in place
// and appends the tag, returning iv || ctr(plaintext) || tag.
func (c *Cipher) seal(s *sealScratch, raw []byte) []byte {
	c.ivPRF.digest(raw[:aes.BlockSize], raw[aes.BlockSize:])
	s.ctr = [aes.BlockSize]byte(raw[:aes.BlockSize])
	c.xorKeyStream(s, raw[aes.BlockSize:])
	n := len(raw)
	raw = append(raw, zeroBlock[:tagLen]...)
	c.tagPRF.digest(raw[n:], raw[:n])
	return raw
}

// xorKeyStream XORs buf in place with the AES-CTR keystream starting at
// counter block s.ctr — crypto/cipher's CTR mode, whose counter is the
// whole block read as one big-endian integer, run on the scratch's
// blocks instead of a fresh cipher.Stream. Sealing and opening share
// it.
func (c *Cipher) xorKeyStream(s *sealScratch, buf []byte) {
	for len(buf) > 0 {
		c.block.Encrypt(s.ks[:], s.ctr[:])
		n := subtle.XORBytes(buf, buf, s.ks[:])
		buf = buf[n:]
		for i := len(s.ctr) - 1; i >= 0; i-- {
			s.ctr[i]++
			if s.ctr[i] != 0 {
				break
			}
		}
	}
}

// WatermarkKey bundles the secret elements of the watermarking key
// (Table 1 of the paper: k1, k2, η) together with the master encryption
// key used by the binning agent for identifying columns. "Without having
// possession of the secret watermarking key, no one can erase the inserted
// mark from the data."
type WatermarkKey struct {
	// K1 drives tuple selection (Equation 5).
	K1 []byte
	// K2 drives index derivation and mark-position addressing inside
	// Permutate. The paper stresses that distinct keys remove correlation
	// between the two calculations.
	K2 []byte
	// Eta is the selection parameter η: roughly one tuple in Eta carries
	// mark bits. Smaller η = more bandwidth = more resilience and more
	// distortion (the trade-off of Figure 12).
	Eta uint64
	// Enc is the master key for the identifying-column cipher E().
	Enc []byte
}

// NewWatermarkKeyFromSecret derives a full, independent key set from one
// secret passphrase. Deterministic: the same secret always yields the same
// keys, so a data owner can re-derive them for detection.
func NewWatermarkKeyFromSecret(secret string, eta uint64) WatermarkKey {
	root := NewPRF([]byte(secret))
	return WatermarkKey{
		K1:  root.Sum([]byte("k1")),
		K2:  root.Sum([]byte("k2")),
		Eta: eta,
		Enc: root.Sum([]byte("enc")),
	}
}

// RecipientWatermarkKey derives the per-recipient key set used when one
// source table is fingerprinted for several recipients. K1 (tuple
// selection), Eta and Enc (identifier encryption) are shared with the
// owner's NewWatermarkKeyFromSecret key — all copies select the same
// tuples and encrypt identifiers identically, which lets leak traceback
// pay the selection scan once across every candidate and keeps the §5.4
// decryption story owner-wide — while K2 (position addressing) is salted
// with the recipient ID, so each copy carries its bits at
// recipient-specific wmd positions. Deterministic: the owner re-derives
// any recipient's key from the master secret and the recipient ID.
func RecipientWatermarkKey(secret, recipientID string, eta uint64) WatermarkKey {
	root := NewPRF([]byte(secret))
	return WatermarkKey{
		K1:  root.Sum([]byte("k1")),
		K2:  root.Sum([]byte("k2"), []byte(recipientID)),
		Eta: eta,
		Enc: root.Sum([]byte("enc")),
	}
}

// Fingerprint returns a short non-secret digest of the key material
// (K1, K2 and Enc; Eta travels in clear next to it). A recipient
// registry stores it so a later traceback can verify that the key it
// derived or was handed matches the key the copy was actually marked
// with — without the registry ever holding key bytes.
func (k WatermarkKey) Fingerprint() string {
	fp := NewPRF([]byte("medshield/keyfp/v1"))
	var eta [8]byte
	binary.BigEndian.PutUint64(eta[:], k.Eta)
	return hex.EncodeToString(fp.Sum(k.K1, k.K2, k.Enc, eta[:])[:16])
}

// Validate reports whether the key material is usable.
func (k WatermarkKey) Validate() error {
	if len(k.K1) == 0 {
		return errors.New("crypt: empty K1")
	}
	if len(k.K2) == 0 {
		return errors.New("crypt: empty K2")
	}
	if string(k.K1) == string(k.K2) {
		return errors.New("crypt: K1 and K2 must differ (the paper requires uncorrelated calculations)")
	}
	if k.Eta == 0 {
		return errors.New("crypt: Eta must be positive")
	}
	return nil
}

// The race detector makes sync.Pool drop pooled values at random, so
// allocation counts hold only without it.

//go:build !race

package crypt

import "testing"

// TestEncryptAndSelectAllocateNothing: E and its inverse into a buffer
// with room and H's selection test allocate nothing per call.
func TestEncryptAndSelectAllocateNothing(t *testing.T) {
	c, err := NewCipher(katKey)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 256)
	pt := katPlaintext(33)
	if n := testing.AllocsPerRun(100, func() { dst = c.AppendEncryptString(dst[:0], pt) }); n != 0 {
		t.Errorf("AppendEncryptString: %v allocs per call, want 0", n)
	}
	tok := string(c.AppendEncryptString(nil, pt))
	var back []byte
	if n := testing.AllocsPerRun(100, func() { back, _ = c.AppendDecryptString(back[:0], tok) }); n != 0 {
		t.Errorf("AppendDecryptString: %v allocs per call, want 0", n)
	}
	if string(back) != pt {
		t.Errorf("AppendDecryptString = %q, want %q", back, pt)
	}
	p := NewPRF(katKey)
	ident := []byte("123-45-6789")
	if n := testing.AllocsPerRun(100, func() { p.Selects(ident, 75) }); n != 0 {
		t.Errorf("Selects: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.Mod(7, ident, ident) }); n != 0 {
		t.Errorf("Mod: %v allocs per call, want 0", n)
	}
}

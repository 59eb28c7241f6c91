//go:build amd64 && gc

package cryptonight

import (
	"crypto/aes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// forceSoftAES routes Sum through walkGo for the rest of the test. Tests in
// this package run sequentially, so flipping the dispatch flag is safe.
func forceSoftAES(t *testing.T) {
	saved := hasAESNI
	hasAESNI = false
	t.Cleanup(func() { hasAESNI = saved })
}

// TestAESKernelsMatchCryptoAES holds the explode and implode kernels to
// crypto/aes directly: one chunk of explode is eight block encryptions of
// the lane buffer, one chunk of implode eight encryptions of buffer XOR pad.
func TestAESKernelsMatchCryptoAES(t *testing.T) {
	if !hasAESNI {
		t.Skip("no AES-NI on this CPU")
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 64; trial++ {
		var key [16]byte
		var in, padBytes [128]byte
		rng.Read(key[:])
		rng.Read(in[:])
		rng.Read(padBytes[:])
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var rk roundKeys
		expandKey(key[:], &rk)
		var text, pad [16]uint64
		for i := range text {
			text[i] = binary.LittleEndian.Uint64(in[8*i:])
			pad[i] = binary.LittleEndian.Uint64(padBytes[8*i:])
		}
		lanes := func(b [128]byte) (l [16]uint64) {
			for blk := 0; blk < 8; blk++ {
				ref.Encrypt(b[16*blk:16*blk+16], b[16*blk:16*blk+16])
			}
			for i := range l {
				l[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
			return l
		}

		folded := text
		implodeAsm(&rk, &folded, &pad[0], 1)
		var xored [128]byte
		for i := range xored {
			xored[i] = in[i] ^ padBytes[i]
		}
		if want := lanes(xored); folded != want {
			t.Fatalf("trial %d: implodeAsm %x, crypto/aes %x", trial, folded, want)
		}

		var out [16]uint64
		explodeAsm(&rk, &text, &out[0], 1)
		if want := lanes(in); out != want || text != want {
			t.Fatalf("trial %d: explodeAsm wrote %x, carried %x, crypto/aes %x", trial, out, text, want)
		}
	}
}

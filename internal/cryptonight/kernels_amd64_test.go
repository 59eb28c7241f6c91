//go:build amd64 && gc

package cryptonight

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// forceSoftAES routes Sum through walkGo for the rest of the test. Tests in
// this package run sequentially, so flipping the dispatch flag is safe.
func forceSoftAES(t *testing.T) {
	saved := hasAESNI
	hasAESNI = false
	t.Cleanup(func() { hasAESNI = saved })
}

// cpuAESNI and cpuVAES are what the CPU has, whatever a test forces.
var cpuAESNI, cpuVAES = hasAESNI, hasVAES

// batchPaths lists the SumBatch paths this CPU can run: walkGo, the
// 4-lane main loop with one-lane explode and implode ("xmm", with
// AES-NI) and the VAES explode and implode ("vaes").
func batchPaths() []string {
	paths := []string{"walkGo"}
	if cpuAESNI {
		paths = append(paths, "xmm")
	}
	if cpuVAES {
		paths = append(paths, "vaes")
	}
	return paths
}

// forcePath routes the dispatch through one of batchPaths' paths for the
// rest of the test.
func forcePath(t *testing.T, path string) {
	hasAESNI, hasVAES = cpuAESNI && path != "walkGo", cpuVAES && path == "vaes"
	t.Cleanup(func() { hasAESNI, hasVAES = cpuAESNI, cpuVAES })
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

// TestVAESKernelsMatchCryptoAES holds the 4-lane explode and implode
// kernels to crypto/aes: each lane, under its own key, is what explodeAsm
// and implodeAsm are held to above, over a pad of three chunks.
func TestVAESKernelsMatchCryptoAES(t *testing.T) {
	if !cpuVAES {
		t.Skip("no AVX-512 VAES on this CPU")
	}
	const chunks = 3
	v := Variant{Name: "three-chunk", ScratchpadSize: 128 * 4, Iterations: 1}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 16; trial++ {
		var hs [4]*Hasher
		var refs [4]cipher.Block
		var in [4][16]uint64
		var pads [4][]uint64
		for i := range hs {
			h, err := NewHasher(v)
			if err != nil {
				t.Fatal(err)
			}
			var key [16]byte
			rng.Read(key[:])
			if refs[i], err = aes.NewCipher(key[:]); err != nil {
				t.Fatal(err)
			}
			expandKey(key[:], &h.rk0)
			expandKey(key[:], &h.rk1)
			for j := range h.text {
				h.text[j] = rng.Uint64()
			}
			for j := range h.pad {
				h.pad[j] = rng.Uint64()
			}
			hs[i], in[i], pads[i] = h, h.text, slices.Clone(h.pad)
		}
		// encrypt is one chunk of either kernel on lane i: the eight
		// blocks of text XOR chunk, each encrypted by crypto/aes.
		encrypt := func(i int, text [16]uint64, chunk []uint64) (out [16]uint64) {
			var b [128]byte
			for j := range out {
				binary.LittleEndian.PutUint64(b[8*j:], text[j]^chunk[j])
			}
			for blk := 0; blk < 8; blk++ {
				refs[i].Encrypt(b[16*blk:16*blk+16], b[16*blk:16*blk+16])
			}
			for j := range out {
				out[j] = binary.LittleEndian.Uint64(b[8*j:])
			}
			return out
		}

		// Implode the last three chunks of each pad into its text.
		implode4Asm(&hs, 16, chunks)
		for i, h := range hs {
			want := in[i]
			for c := 1; c <= chunks; c++ {
				want = encrypt(i, want, pads[i][16*c:16*c+16])
			}
			if h.text != want {
				t.Fatalf("trial %d lane %d: implode4Asm %x, crypto/aes %x", trial, i, h.text, want)
			}
		}

		// Explode from that text over the first three chunks; the fourth
		// stays as it was.
		var zero [16]uint64
		var implodedText [4][16]uint64
		for i, h := range hs {
			implodedText[i] = h.text
		}
		explode4Asm(&hs, 0, chunks)
		for i, h := range hs {
			want := implodedText[i]
			for c := 0; c < chunks; c++ {
				want = encrypt(i, want, zero[:])
				if got := h.pad[16*c : 16*c+16]; !slices.Equal(got, want[:]) {
					t.Fatalf("trial %d lane %d chunk %d: explode4Asm wrote %x, crypto/aes %x", trial, i, c, got, want)
				}
			}
			if h.text != want || !slices.Equal(h.pad[48:], pads[i][48:]) {
				t.Fatalf("trial %d lane %d: explode4Asm carried %x or overran the pad", trial, i, h.text)
			}
		}
	}
}

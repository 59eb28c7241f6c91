// Package keccak implements the original (pre-NIST) Keccak hash family as
// used by Monero and CryptoNight: Keccak-f[1600] permutation, Keccak-256 and
// Keccak-512 with the legacy 0x01 domain-separation padding (NIST SHA-3 later
// changed this to 0x06, which is why SHA3-256 digests differ from Monero's).
//
// The package also exposes the raw 200-byte sponge state initialisation used
// by CryptoNight, which absorbs the input and returns the full state rather
// than a truncated digest.
//
// Sum256 and State1600 are one-shot and allocation-free: the sponge
// lives on the stack and the digest is returned by value. Every caller
// hashes a whole buffer, so there is no streaming hash.Hash.
package keccak

import (
	"encoding/binary"
	"math/bits"
)

// stateSize is the size of the Keccak-f[1600] state in bytes.
const stateSize = 200

// roundConstants are the 24 iota round constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// Permute applies the full 24-round Keccak-f[1600] permutation in place.
// The state lives in registers for the whole permutation: theta, rho-pi and
// chi are fully flattened (as in x/crypto/sha3), so each round is straight-
// line code with no array indexing, loops or bounds checks.
//
//lint:hotpath
func Permute(a *[25]uint64) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	a5, a6, a7, a8, a9 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]

	for r := 0; r < 24; r++ {
		// Theta: column parities, then xor each lane with its neighbour mix.
		c0 := a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 := a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 := a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 := a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 := a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		a0 ^= d0
		a5 ^= d0
		a10 ^= d0
		a15 ^= d0
		a20 ^= d0
		a1 ^= d1
		a6 ^= d1
		a11 ^= d1
		a16 ^= d1
		a21 ^= d1
		a2 ^= d2
		a7 ^= d2
		a12 ^= d2
		a17 ^= d2
		a22 ^= d2
		a3 ^= d3
		a8 ^= d3
		a13 ^= d3
		a18 ^= d3
		a23 ^= d3
		a4 ^= d4
		a9 ^= d4
		a14 ^= d4
		a19 ^= d4
		a24 ^= d4

		// Rho and Pi: rotate each lane and move it to its chi position.
		b0 := a0
		b1 := bits.RotateLeft64(a6, 44)
		b2 := bits.RotateLeft64(a12, 43)
		b3 := bits.RotateLeft64(a18, 21)
		b4 := bits.RotateLeft64(a24, 14)
		b5 := bits.RotateLeft64(a3, 28)
		b6 := bits.RotateLeft64(a9, 20)
		b7 := bits.RotateLeft64(a10, 3)
		b8 := bits.RotateLeft64(a16, 45)
		b9 := bits.RotateLeft64(a22, 61)
		b10 := bits.RotateLeft64(a1, 1)
		b11 := bits.RotateLeft64(a7, 6)
		b12 := bits.RotateLeft64(a13, 25)
		b13 := bits.RotateLeft64(a19, 8)
		b14 := bits.RotateLeft64(a20, 18)
		b15 := bits.RotateLeft64(a4, 27)
		b16 := bits.RotateLeft64(a5, 36)
		b17 := bits.RotateLeft64(a11, 10)
		b18 := bits.RotateLeft64(a17, 15)
		b19 := bits.RotateLeft64(a23, 56)
		b20 := bits.RotateLeft64(a2, 62)
		b21 := bits.RotateLeft64(a8, 55)
		b22 := bits.RotateLeft64(a14, 39)
		b23 := bits.RotateLeft64(a15, 41)
		b24 := bits.RotateLeft64(a21, 2)

		// Chi per row, with iota folded into lane 0.
		a0 = b0 ^ (^b1 & b2) ^ roundConstants[r]
		a1 = b1 ^ (^b2 & b3)
		a2 = b2 ^ (^b3 & b4)
		a3 = b3 ^ (^b4 & b0)
		a4 = b4 ^ (^b0 & b1)
		a5 = b5 ^ (^b6 & b7)
		a6 = b6 ^ (^b7 & b8)
		a7 = b7 ^ (^b8 & b9)
		a8 = b8 ^ (^b9 & b5)
		a9 = b9 ^ (^b5 & b6)
		a10 = b10 ^ (^b11 & b12)
		a11 = b11 ^ (^b12 & b13)
		a12 = b12 ^ (^b13 & b14)
		a13 = b13 ^ (^b14 & b10)
		a14 = b14 ^ (^b10 & b11)
		a15 = b15 ^ (^b16 & b17)
		a16 = b16 ^ (^b17 & b18)
		a17 = b17 ^ (^b18 & b19)
		a18 = b18 ^ (^b19 & b15)
		a19 = b19 ^ (^b15 & b16)
		a20 = b20 ^ (^b21 & b22)
		a21 = b21 ^ (^b22 & b23)
		a22 = b22 ^ (^b23 & b24)
		a23 = b23 ^ (^b24 & b20)
		a24 = b24 ^ (^b20 & b21)
	}

	a[0], a[1], a[2], a[3], a[4] = a0, a1, a2, a3, a4
	a[5], a[6], a[7], a[8], a[9] = a5, a6, a7, a8, a9
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

// absorb soaks data into the sponge at the given rate with the legacy 0x01
// padding, leaving the squeezed state in a. It writes the final padded block
// directly into the lanes, so no block buffer — and no allocation — is
// needed.
//
//lint:hotpath
func absorb(a *[25]uint64, data []byte, rate int) {
	for len(data) >= rate {
		for i := 0; i < rate/8; i++ {
			a[i] ^= binary.LittleEndian.Uint64(data[i*8:])
		}
		Permute(a)
		data = data[rate:]
	}
	// Final partial block: whole lanes first, then the byte tail and the
	// 0x01…0x80 domain padding xored straight into the state.
	i := 0
	for ; len(data) >= 8; i++ {
		a[i] ^= binary.LittleEndian.Uint64(data)
		data = data[8:]
	}
	var last uint64
	for j := 0; j < len(data); j++ {
		last |= uint64(data[j]) << (8 * uint(j))
	}
	last |= 0x01 << (8 * uint(len(data))) // legacy Keccak domain bits
	a[i] ^= last
	a[rate/8-1] ^= 0x80 << 56
	Permute(a)
}

// Sum256 computes the legacy Keccak-256 digest of data. One-shot: the
// sponge lives on the stack and nothing is heap-allocated.
//
//lint:hotpath
func Sum256(data []byte) (out [32]byte) {
	var a [25]uint64
	absorb(&a, data, 136)
	binary.LittleEndian.PutUint64(out[0:], a[0])
	binary.LittleEndian.PutUint64(out[8:], a[1])
	binary.LittleEndian.PutUint64(out[16:], a[2])
	binary.LittleEndian.PutUint64(out[24:], a[3])
	return out
}

// State1600 absorbs data with the Keccak-512 rate (72 bytes) and returns the
// entire 200-byte sponge state. CryptoNight uses this as its initial state.
//
//lint:hotpath
func State1600(data []byte) (out [stateSize]byte) {
	var a [25]uint64
	absorb(&a, data, 72)
	for i := 0; i < 25; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], a[i])
	}
	return out
}

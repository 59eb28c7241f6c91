package cryptonight

import "math/bits"

// AES-128 key expansion and full-block encryption for the explode/implode
// phases. CryptoNight keys both phases off the Keccak state, with a fresh
// key schedule per hash — crypto/aes would heap-allocate a cipher object
// for every one of them, so the schedule is expanded into a Hasher-owned
// array instead and the blocks are encrypted either by the AES-NI explode/
// implode kernels (kernels_amd64.s) or by the T-table software path below.
// Both are bit-identical to crypto/aes (checked by tests), so swapping them
// never changes a digest.

// roundKeys is an expanded AES-128 schedule: 11 round keys of 4 columns,
// each column a little-endian uint32 — the same column convention the
// T-tables use. On a little-endian machine the array's memory image is
// exactly the 176 round-key bytes, which is what the assembly kernels load.
type roundKeys [44]uint32

// expandKey computes the AES-128 key schedule for the 16-byte key at
// key[:16]. It allocates nothing.
func expandKey(key []byte, rk *roundKeys) {
	_ = key[15]
	// The schedule is defined on big-endian words; compute it that way and
	// store each word byte-reversed to get little-endian columns.
	var w [44]uint32
	for i := 0; i < 4; i++ {
		w[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	rc := byte(1)
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			t = t<<8 | t>>24                                               // RotWord
			t = uint32(sbox[t>>24])<<24 | uint32(sbox[(t>>16)&0xFF])<<16 | // SubWord
				uint32(sbox[(t>>8)&0xFF])<<8 | uint32(sbox[t&0xFF])
			t ^= uint32(rc) << 24
			rc = xtime(rc)
		}
		w[i] = w[i-4] ^ t
	}
	for i := range w {
		rk[i] = bits.ReverseBytes32(w[i])
	}
}

// encryptBlockGo encrypts one 16-byte block (two little-endian uint64
// lanes) with the expanded schedule: AddRoundKey, 9 T-table rounds, and a
// final round without MixColumns. Bit-identical to crypto/aes encryption.
func encryptBlockGo(rk *roundKeys, s0, s1 uint64) (uint64, uint64) {
	c0 := uint32(s0) ^ rk[0]
	c1 := uint32(s0>>32) ^ rk[1]
	c2 := uint32(s1) ^ rk[2]
	c3 := uint32(s1>>32) ^ rk[3]
	for r := 4; r < 40; r += 4 {
		o0 := te0[c0&0xFF] ^ te1[(c1>>8)&0xFF] ^ te2[(c2>>16)&0xFF] ^ te3[c3>>24] ^ rk[r]
		o1 := te0[c1&0xFF] ^ te1[(c2>>8)&0xFF] ^ te2[(c3>>16)&0xFF] ^ te3[c0>>24] ^ rk[r+1]
		o2 := te0[c2&0xFF] ^ te1[(c3>>8)&0xFF] ^ te2[(c0>>16)&0xFF] ^ te3[c1>>24] ^ rk[r+2]
		o3 := te0[c3&0xFF] ^ te1[(c0>>8)&0xFF] ^ te2[(c1>>16)&0xFF] ^ te3[c2>>24] ^ rk[r+3]
		c0, c1, c2, c3 = o0, o1, o2, o3
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	o0 := uint32(sbox[c0&0xFF]) | uint32(sbox[(c1>>8)&0xFF])<<8 | uint32(sbox[(c2>>16)&0xFF])<<16 | uint32(sbox[c3>>24])<<24
	o1 := uint32(sbox[c1&0xFF]) | uint32(sbox[(c2>>8)&0xFF])<<8 | uint32(sbox[(c3>>16)&0xFF])<<16 | uint32(sbox[c0>>24])<<24
	o2 := uint32(sbox[c2&0xFF]) | uint32(sbox[(c3>>8)&0xFF])<<8 | uint32(sbox[(c0>>16)&0xFF])<<16 | uint32(sbox[c1>>24])<<24
	o3 := uint32(sbox[c3&0xFF]) | uint32(sbox[(c0>>8)&0xFF])<<8 | uint32(sbox[(c1>>16)&0xFF])<<16 | uint32(sbox[c2>>24])<<24
	o0 ^= rk[40]
	o1 ^= rk[41]
	o2 ^= rk[42]
	o3 ^= rk[43]
	return uint64(o1)<<32 | uint64(o0), uint64(o3)<<32 | uint64(o2)
}

// encryptLanes encrypts the eight 16-byte blocks of a 128-byte lane
// buffer in place — one explode/implode step of the pure-Go path.
func encryptLanes(rk *roundKeys, text *[16]uint64) {
	for i := 0; i < 16; i += 2 {
		text[i], text[i+1] = encryptBlockGo(rk, text[i], text[i+1])
	}
}

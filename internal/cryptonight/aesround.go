package cryptonight

// Single AES encryption round (SubBytes, ShiftRows, MixColumns, AddRoundKey)
// as used by the CryptoNight main loop, where the 16-byte register `a`
// serves directly as the round key — no key schedule is involved.
//
// walkGo's round is aesRound64 (the AES-NI main-loop kernel does the same
// round with one AESENC), which works on the state as two uint64
// register pairs (four little-endian uint32 columns) via four precomputed
// T-tables. Each T-table entry fuses SubBytes with one column of the
// MixColumns circulant, so a full round is 16 table loads and a handful of
// XORs instead of per-byte S-box and xtime arithmetic. aesRound keeps the
// byte-wise algebraic formulation as the reference the tests check the
// tables against.
//
// The S-box is generated at init time from its algebraic definition
// (multiplicative inverse in GF(2^8) followed by the affine transform)
// rather than embedded as a literal table; the T-tables are derived from
// it in the same init pass.

var sbox [256]byte

// T-tables for one AES round over little-endian uint32 columns:
//
//	te0[x] = (2·S(x), S(x), S(x), 3·S(x))   // bytes 0..3 of the entry
//	te1[x] = (3·S(x), 2·S(x), S(x), S(x))
//	te2[x] = (S(x), 3·S(x), 2·S(x), S(x))
//	te3[x] = (S(x), S(x), 3·S(x), 2·S(x))
//
// so that column c of the round output is
//
//	te0[b0(c)] ^ te1[b1(c+1)] ^ te2[b2(c+2)] ^ te3[b3(c+3)] ^ key(c)
//
// where bN(k) is byte N of source column k mod 4 — exactly
// MixColumns(ShiftRows(SubBytes(state))) ^ key.
var te0, te1, te2, te3 [256]uint32

func init() {
	rotl8 := func(x byte, s uint) byte { return x<<s | x>>(8-s) }
	p, q := byte(1), byte(1)
	for {
		// p runs over GF(2^8)* generated by 3; q tracks its inverse.
		if p&0x80 != 0 {
			p = p ^ p<<1 ^ 0x1B
		} else {
			p = p ^ p<<1
		}
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		sbox[p] = q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3) ^ rotl8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	sbox[0] = 0x63

	for i := 0; i < 256; i++ {
		s := uint32(sbox[i])
		s2 := uint32(xtime(sbox[i]))
		s3 := s2 ^ s
		t := s2 | s<<8 | s<<16 | s3<<24
		te0[i] = t
		te1[i] = t<<8 | t>>24
		te2[i] = t<<16 | t>>16
		te3[i] = t<<24 | t>>8
	}
}

// xtime multiplies by x in GF(2^8) with the AES polynomial.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1B
	}
	return b << 1
}

// aesRound64 performs one AES encryption round on the 16-byte state held
// as two little-endian uint64 lanes (s0 = columns 0,1; s1 = columns 2,3),
// with the round key in the same layout.
func aesRound64(s0, s1, k0, k1 uint64) (uint64, uint64) {
	c0 := uint32(s0)
	c1 := uint32(s0 >> 32)
	c2 := uint32(s1)
	c3 := uint32(s1 >> 32)
	o0 := te0[c0&0xFF] ^ te1[(c1>>8)&0xFF] ^ te2[(c2>>16)&0xFF] ^ te3[c3>>24]
	o1 := te0[c1&0xFF] ^ te1[(c2>>8)&0xFF] ^ te2[(c3>>16)&0xFF] ^ te3[c0>>24]
	o2 := te0[c2&0xFF] ^ te1[(c3>>8)&0xFF] ^ te2[(c0>>16)&0xFF] ^ te3[c1>>24]
	o3 := te0[c3&0xFF] ^ te1[(c0>>8)&0xFF] ^ te2[(c1>>16)&0xFF] ^ te3[c2>>24]
	return (uint64(o1)<<32 | uint64(o0)) ^ k0, (uint64(o3)<<32 | uint64(o2)) ^ k1
}

// aesRound is the byte-wise reference formulation of the round; the tests
// verify aesRound64 and the T-tables against it. dst and src may alias.
func aesRound(dst, src, key *[16]byte) {
	var out [16]byte
	for c := 0; c < 4; c++ {
		// SubBytes + ShiftRows: row r of column c comes from column (c+r)%4.
		t0 := sbox[src[(4*c+0)&15]]
		t1 := sbox[src[(4*(c+1)+1)&15]]
		t2 := sbox[src[(4*(c+2)+2)&15]]
		t3 := sbox[src[(4*(c+3)+3)&15]]
		// MixColumns with the 2-3-1-1 circulant.
		out[4*c+0] = xtime(t0) ^ xtime(t1) ^ t1 ^ t2 ^ t3
		out[4*c+1] = t0 ^ xtime(t1) ^ xtime(t2) ^ t2 ^ t3
		out[4*c+2] = t0 ^ t1 ^ xtime(t2) ^ xtime(t3) ^ t3
		out[4*c+3] = xtime(t0) ^ t0 ^ t1 ^ t2 ^ xtime(t3)
	}
	for i := 0; i < 16; i++ {
		dst[i] = out[i] ^ key[i]
	}
}

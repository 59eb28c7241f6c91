// Package varint implements the LEB128-style variable-length integer
// encoding used by the Monero wire format for block headers and
// transactions. Unlike encoding/binary, decoding enforces canonical
// (minimal-length) encodings, which consensus code requires: two different
// byte strings must never decode to the same header.
package varint

import "errors"

// maxLen is the maximum number of bytes a uint64 varint can occupy.
const maxLen = 10

var (
	// errOverflow is returned when a varint exceeds 64 bits.
	errOverflow = errors.New("varint: value overflows uint64")
	// errNonCanonical is returned for a valid but non-minimal encoding.
	errNonCanonical = errors.New("varint: non-canonical encoding")
	// ErrTruncated is returned when input ends mid-varint.
	ErrTruncated = errors.New("varint: truncated input")
)

// Append appends the canonical encoding of v to dst and returns the
// extended slice.
func Append(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Len returns the encoded length of v in bytes.
func Len(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decode reads a canonical varint from the front of buf, returning the value
// and the number of bytes consumed.
func Decode(buf []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(buf); i++ {
		b := buf[i]
		if i == 9 && b > 1 {
			return 0, 0, errOverflow
		}
		v |= uint64(b&0x7f) << (7 * uint(i))
		if b&0x80 == 0 {
			if b == 0 && i > 0 {
				return 0, 0, errNonCanonical
			}
			return v, i + 1, nil
		}
		if i == maxLen-1 {
			return 0, 0, errOverflow
		}
	}
	return 0, 0, ErrTruncated
}

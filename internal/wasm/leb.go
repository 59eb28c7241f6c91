// Package wasm implements the WebAssembly MVP binary format: a module
// encoder/decoder covering the sections browser miners use (types, imports,
// functions, memories, globals, exports, code, data, and the "name" custom
// section), plus an instruction walker used for opcode-histogram feature
// extraction.
//
// The paper fingerprints miners by hashing Wasm function bodies in strict
// order and by counting "XOR, shift or load operations which we found to be
// quite distinctive" (§3.2); both operations are built on this package.
package wasm

import (
	"errors"
	"fmt"
)

// LEB128 as specified by the WebAssembly binary format. Unlike the
// consensus varint codec in internal/varint, Wasm tolerates non-minimal
// encodings (toolchains emit padded LEBs for relocation slots), so the
// decoder here accepts them.

var errLEB = errors.New("wasm: malformed LEB128")

// readU32 decodes an unsigned LEB128 as uint32.
func readU32(b []byte) (uint32, int, error) {
	var v uint32
	for i := 0; i < 5; i++ {
		if i >= len(b) {
			return 0, 0, errLEB
		}
		c := b[i]
		v |= uint32(c&0x7f) << (7 * uint(i))
		if c&0x80 == 0 {
			if i == 4 && c > 0x0f {
				return 0, 0, fmt.Errorf("%w: u32 overflow", errLEB)
			}
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: u32 too long", errLEB)
}

// readS64 decodes a signed LEB128 of at most 64 bits.
func readS64(b []byte) (int64, int, error) {
	var v int64
	var shift uint
	for i := 0; i < 10; i++ {
		if i >= len(b) {
			return 0, 0, errLEB
		}
		c := b[i]
		v |= int64(c&0x7f) << shift
		shift += 7
		if c&0x80 == 0 {
			if shift < 64 && c&0x40 != 0 {
				v |= -1 << shift
			}
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: s64 too long", errLEB)
}

// appendU32 encodes v as minimal unsigned LEB128.
func appendU32(dst []byte, v uint32) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// appendS64 encodes v as signed LEB128.
func appendS64(dst []byte, v int64) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if (v == 0 && b&0x40 == 0) || (v == -1 && b&0x40 != 0) {
			return append(dst, b)
		}
		dst = append(dst, b|0x80)
	}
}

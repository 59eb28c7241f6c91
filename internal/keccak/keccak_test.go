package keccak

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

// Known-answer vectors for legacy (pre-NIST, 0x01-padded) Keccak, the variant
// Monero uses. These match the original Keccak reference implementation.
// The long inputs span several blocks at either rate and end in a partial
// one, pinning multi-block absorption.
var vectors256 = []struct {
	in  string
	out string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"The quick brown fox jumps over the lazy dog", "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	{pattern1000, "82bc59cea7b5eac6d5e84cfabd1450ecba233bc6c0b375bda57dd7848a088ce6"},
	{strings.Repeat("\xa3", 200), "3a57666b048777f2c953dc4456f45a2588e1cb6f2da760122d530ac2ce607d4a"},
}

var vectors512 = []struct {
	in  string
	out string
}{
	{"", "0eab42de4c3ceb9235fc91acffe746b29c29a8c366b7c60e4e67c466f36a4304c00fa9caf9d87976ba469bcbe06713b435f091ef2769fb160cdab33d3670680e"},
	{"abc", "18587dc2ea106b9a1563e32b3312421ca164c7f1f07bc922a9c83d77cea3a1e5d0c69910739025372dc14ac9642629379540c17e2a65b19d77aa511a9d00bb96"},
	{pattern1000, "d252762f68b3ce83c0d18f07c1d50f0c079e5aa14192edeead64225027215dc5f244b6c202d31a23648ded39d75eda4c12aad6c1ff5f31c9e2cc340d469b190f"},
}

// pattern1000 is the 1000 bytes byte(i*7).
var pattern1000 = func() string {
	b := make([]byte, 1000)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return string(b)
}()

func TestSum256Vectors(t *testing.T) {
	for _, v := range vectors256 {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.out {
			t.Errorf("Sum256(%q) = %x, want %s", v.in, got, v.out)
		}
	}
}

// TestSum512Vectors checks the Keccak-512 known answers. The digest is the
// first 64 bytes of State1600's state (same rate, same padding, one squeeze),
// so no separate Keccak-512 function exists.
func TestSum512Vectors(t *testing.T) {
	for _, v := range vectors512 {
		st := State1600([]byte(v.in))
		if hex.EncodeToString(st[:64]) != v.out {
			t.Errorf("State1600(%q)[:64] = %x, want keccak512 %s", v.in, st[:64], v.out)
		}
	}
}

// TestIncrementalWriteMatchesOneShot feeds the 1000-byte pattern in awkward
// chunks crossing the 136-byte rate boundary through a byte-buffered
// reference sponge built on Permute, and checks that it squeezes the same
// digest as Sum256's lane-wise one-shot absorb.
func TestIncrementalWriteMatchesOneShot(t *testing.T) {
	const rate = 136
	var a [25]uint64
	var buf [rate]byte
	n := 0
	flush := func() {
		for i := 0; i < rate/8; i++ {
			a[i] ^= binary.LittleEndian.Uint64(buf[i*8:])
		}
		Permute(&a)
		buf, n = [rate]byte{}, 0
	}
	data := []byte(pattern1000)
	for i := 0; i < len(data); {
		k := 1 + (i*13)%47
		if i+k > len(data) {
			k = len(data) - i
		}
		for _, c := range data[i : i+k] {
			buf[n] = c
			if n++; n == rate {
				flush()
			}
		}
		i += k
	}
	buf[n] ^= 0x01
	buf[rate-1] ^= 0x80
	flush()
	var got [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(got[i*8:], a[i])
	}
	if want := Sum256(data); got != want {
		t.Errorf("incremental = %x, want %x", got, want)
	}
}

func TestState1600Deterministic(t *testing.T) {
	a := State1600([]byte("job blob"))
	b := State1600([]byte("job blob"))
	if a != b {
		t.Error("State1600 not deterministic")
	}
	c := State1600([]byte("job blot"))
	if a == c {
		t.Error("State1600 collision on different input")
	}
}

func TestState1600MultiBlock(t *testing.T) {
	// Inputs longer than the 72-byte rate must absorb multiple blocks and
	// still be deterministic and distinct from truncated variants.
	long := bytes.Repeat([]byte{0xAB}, 300)
	a := State1600(long)
	b := State1600(long[:299])
	if a == b {
		t.Error("State1600 ignored trailing byte of multi-block input")
	}
}

func TestState1600PrefixOfKeccak512(t *testing.T) {
	// For a single-block input, the first 64 bytes of the raw state equal the
	// Keccak-512 digest of the same input (same rate, same padding), here
	// absorbed by hand on Permute.
	in := []byte("cryptonight-init")
	var block [72]byte
	copy(block[:], in)
	block[len(in)] ^= 0x01
	block[71] ^= 0x80
	var a [25]uint64
	for i := 0; i < 9; i++ {
		a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	Permute(&a)
	var d [64]byte
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(d[i*8:], a[i])
	}
	st := State1600(in)
	if !bytes.Equal(st[:64], d[:]) {
		t.Errorf("state prefix %x != keccak512 %x", st[:64], d)
	}
}

func TestQuickDistinctInputsDistinctDigests(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		x, y := Sum256(a), Sum256(b)
		return x != y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The one-shot entry points are on the simulation's hot path; the 1-CPU CI
// box cannot demonstrate parallel speedups, so the perf contract is
// structural: zero heap allocations per hash.
func TestOneShotHashesAllocateNothing(t *testing.T) {
	data := make([]byte, 300) // multi-block: exercises the partial-tail path too
	if avg := testing.AllocsPerRun(200, func() { Sum256(data) }); avg != 0 {
		t.Errorf("Sum256: %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { State1600(data) }); avg != 0 {
		t.Errorf("State1600: %.1f allocs/op, want 0", avg)
	}
}

// Benchmarks live in bench_test.go (external test package).

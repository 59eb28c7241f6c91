package cryptonight

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

func TestSboxKnownValues(t *testing.T) {
	// FIPS-197 appendix values.
	cases := map[byte]byte{0x00: 0x63, 0x01: 0x7c, 0x02: 0x77, 0x03: 0x7b, 0x10: 0xca, 0x53: 0xed, 0xff: 0x16}
	for in, want := range cases {
		if sbox[in] != want {
			t.Errorf("sbox[%#02x] = %#02x, want %#02x", in, sbox[in], want)
		}
	}
}

func TestSboxIsPermutation(t *testing.T) {
	var seen [256]bool
	for _, v := range sbox {
		if seen[v] {
			t.Fatalf("sbox value %#02x repeated", v)
		}
		seen[v] = true
	}
}

func TestAesRoundChangesStateAndIsDeterministic(t *testing.T) {
	var s, s2, k [16]byte
	for i := range s {
		s[i] = byte(i)
		k[i] = byte(0xA0 + i)
	}
	s2 = s
	var o1, o2 [16]byte
	aesRound(&o1, &s, &k)
	aesRound(&o2, &s2, &k)
	if o1 != o2 {
		t.Error("aesRound not deterministic")
	}
	if o1 == s {
		t.Error("aesRound is identity")
	}
	// In-place aliasing must give the same result.
	aesRound(&s, &s, &k)
	if s != o1 {
		t.Error("aliased aesRound differs from non-aliased")
	}
}

func TestSumDeterministicPerVariant(t *testing.T) {
	h1, err := NewHasher(Test)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHasher(Test)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("This is a test")
	a := h1.Sum(in)
	b := h2.Sum(in)
	if a != b {
		t.Fatalf("same input, same variant: %x != %x", a, b)
	}
	if c := h1.Sum(in); c != a {
		t.Fatalf("hasher reuse changed digest: %x != %x", c, a)
	}
}

func TestVariantsProduceDistinctDigests(t *testing.T) {
	in := []byte("variant separation")
	a := Sum(in, Test)
	b := Sum(in, Variant{Name: "test2", ScratchpadSize: 1 << 17, Iterations: 1 << 12})
	if a == b {
		t.Error("different scratchpad sizes produced identical digests")
	}
}

func TestAvalanche(t *testing.T) {
	h, _ := NewHasher(Test)
	base := h.Sum([]byte("nonce=0"))
	flip := h.Sum([]byte("nonce=1"))
	// Count differing bits; expect near 128 of 256, accept a broad window.
	diff := 0
	for i := range base {
		b := base[i] ^ flip[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff < 80 || diff > 176 {
		t.Errorf("avalanche bit-diff = %d, want ~128", diff)
	}
}

func TestVariantValidation(t *testing.T) {
	bad := []Variant{
		{Name: "zero"},
		{Name: "notpow2", ScratchpadSize: 3 << 16, Iterations: 100},
		{Name: "not128", ScratchpadSize: 64, Iterations: 100},
		{Name: "noiter", ScratchpadSize: 1 << 16, Iterations: 0},
	}
	for _, v := range bad {
		if _, err := NewHasher(v); err == nil {
			t.Errorf("NewHasher(%s) accepted invalid variant", v.Name)
		}
	}
}

func TestCheckDifficulty(t *testing.T) {
	var one [32]byte // hash = 0: passes any difficulty
	if !CheckDifficulty(one, ^uint64(0)) {
		t.Error("zero hash must satisfy max difficulty")
	}
	var max [32]byte
	for i := range max {
		max[i] = 0xff
	}
	if !CheckDifficulty(max, 1) {
		t.Error("difficulty 1 must accept any hash")
	}
	if CheckDifficulty(max, 2) {
		t.Error("all-ones hash cannot satisfy difficulty 2")
	}
	// hash = 2^255 exactly: ×2 = 2^256 overflows.
	var half [32]byte
	half[31] = 0x80
	if CheckDifficulty(half, 2) {
		t.Error("2^255 × 2 must overflow")
	}
	half[31] = 0x7f
	if !CheckDifficulty(half, 2) {
		t.Error("hash just below 2^255 must satisfy difficulty 2")
	}
}

func TestCheckDifficultyMatchesBigIntSemantics(t *testing.T) {
	// Cross-check the cascade multiply against a widening reference.
	f := func(w0, w1, w2, w3, d uint64) bool {
		var h [32]byte
		binary.LittleEndian.PutUint64(h[0:], w0)
		binary.LittleEndian.PutUint64(h[8:], w1)
		binary.LittleEndian.PutUint64(h[16:], w2)
		binary.LittleEndian.PutUint64(h[24:], w3)
		got := CheckDifficulty(h, d)
		want := refCheck(h, d)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refCheck is an independent big.Int-free reference using 128-bit partials
// written differently from the production code.
func refCheck(h [32]byte, d uint64) bool {
	if d == 0 {
		return true
	}
	// Long multiplication, schoolbook, collecting into 5 limbs.
	var limbs [5]uint64
	for i := 0; i < 4; i++ {
		w := binary.LittleEndian.Uint64(h[i*8:])
		hi, lo := mul128(w, d)
		// add lo at limb i, hi at limb i+1 with carries
		c := add64(&limbs[i], lo, 0)
		c = add64(&limbs[i+1], hi, c)
		for j := i + 2; c != 0 && j < 5; j++ {
			c = add64(&limbs[j], 0, c)
		}
	}
	return limbs[4] == 0
}

func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	c = t >> 32
	m := t & mask
	t = a0*b1 + m
	lo |= (t & mask) << 32
	hi = a1*b1 + c + t>>32
	return
}

func add64(dst *uint64, v, carry uint64) uint64 {
	s := *dst + v
	c1 := uint64(0)
	if s < *dst {
		c1 = 1
	}
	s2 := s + carry
	if s2 < s {
		c1 = 1
	}
	*dst = s2
	return c1
}

func TestCompactTarget(t *testing.T) {
	if DifficultyForTarget(0) != ^uint32(0) {
		t.Error("difficulty 0 must map to max target")
	}
	if DifficultyForTarget(1) != ^uint32(0) {
		t.Error("difficulty 1 must map to max target")
	}
	tgt := DifficultyForTarget(256)
	if tgt != 1<<24 {
		t.Errorf("target(256) = %#x, want %#x", tgt, 1<<24)
	}
	var h [32]byte
	binary.LittleEndian.PutUint32(h[28:], tgt-1)
	if !CheckCompactTarget(h, tgt) {
		t.Error("hash below target rejected")
	}
	binary.LittleEndian.PutUint32(h[28:], tgt)
	if CheckCompactTarget(h, tgt) {
		t.Error("hash equal to target accepted")
	}
}

func TestQuickCompactTargetConsistentWithDifficulty(t *testing.T) {
	// A hash accepted at compact target for difficulty d is, in expectation,
	// also accepted by the full check for ~d; we verify only the weaker
	// sound direction used by the pool: target monotonicity.
	f := func(d1, d2 uint64) bool {
		if d1 == 0 || d2 == 0 {
			return true
		}
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return DifficultyForTarget(d1) >= DifficultyForTarget(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSumTestVariant(b *testing.B) {
	h, _ := NewHasher(Test)
	in := []byte("benchmark input blob that is header-sized, 76 bytes total pad pad pad!!")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Sum(in)
	}
}

// BenchmarkSumBatchTestVariant measures one SumBatch of 1, 2, 3, 4 and 8
// distinct blobs under the Test profile and reports ns/hash: what one
// hash costs depends on how many arrive together (a lone blob runs Sum,
// a group of two or three is padded to a 4-lane walk).
func BenchmarkSumBatchTestVariant(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		b.Run(fmt.Sprintf("blobs=%d", n), func(b *testing.B) {
			blobs := make([][]byte, n)
			for i := range blobs {
				blobs[i] = []byte("benchmark input blob that is header-sized, 76 bytes total pad pad pad!!")
				blobs[i][0] = byte(i)
			}
			sums := make([][32]byte, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SumBatch(Test, blobs, sums)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/hash")
		})
	}
}

func BenchmarkSumLiteVariant(b *testing.B) {
	h, _ := NewHasher(Lite)
	blob := make([]byte, 76)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sum(blob)
	}
}

// BenchmarkGrindTestVariant measures one nonce attempt of the Grind kernel
// (splice + hash + compact-target check) under the Test profile; the
// unmeetable target 0 makes every op exactly one hash.
func BenchmarkGrindTestVariant(b *testing.B) {
	h, _ := NewHasher(Test)
	blob := make([]byte, 76)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Grind(blob, 39, 0, uint32(i), 1)
	}
}

func BenchmarkSumFullVariant(b *testing.B) {
	if testing.Short() {
		b.Skip("full 2MB profile")
	}
	h, _ := NewHasher(Full)
	in := []byte("benchmark input blob that is header-sized, 76 bytes total pad pad pad!!")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Sum(in)
	}
}

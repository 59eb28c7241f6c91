package cryptonight

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// goldenInputs are the inputs of the pinned digest table. Index 4 is 76
// zero bytes (a hashing-blob-sized input); index 6 a structured 76-byte
// pseudo blob.
func goldenInputs() [][]byte {
	blob := make([]byte, 76)
	for i := range blob {
		blob[i] = byte(i*7 + 3)
	}
	return [][]byte{
		{},
		[]byte("This is a test"),
		[]byte("The quick brown fox jumps over the lazy dog"),
		[]byte("benchmark input blob that is header-sized, 76 bytes total pad pad pad!!"),
		make([]byte, 76),
		{0xde, 0xad, 0xbe, 0xef},
		blob,
	}
}

// goldenDigests were recorded from the pre-T-table implementation (per-byte
// S-box round, []byte scratchpad, crypto/aes explode/implode) immediately
// before the refactor; the rewritten core must reproduce every one of them
// bit for bit.
var goldenDigests = map[string][]string{
	"test": {
		"44c64501dff1f6ecfc10b1c7c0740d179409c2f37cca9aa0d48f61e63e2ec185",
		"3cbe5f7ecae6baa099fbf2bdd33689081c81213bcb243aaed4b1934f5b946466",
		"c8f8b4319889c076c9078dd18709e797d763f1fea3f797d2fc49dd4e6bfa7155",
		"06f1eb4a884092327219383a262e2ba4ddac60365a7eac44289d4088cc886fd2",
		"bf4dcdd11b910663b2f33aff660325332a8ef2d50078f840eaa72573615ed8f6",
		"6ad6037df41c5df4579e39ce9260c0d9d055577c6f544c629c0df14aec09fe45",
		"b304df2e294b9c95c5608dda7eb2f65fa56731049c7be33e37afd958ec2cfa13",
	},
	"lite": {
		"6020c8d3e87af2433fc830bcd4464ad7e1182fc113d05303cbc9066b599ac403",
		"17b00ea1c1a9f479105b4edcae68f1f0c281aa643491a40086b37b063b9bbcb2",
		"78c99a62ff1ba8e5e86d1e4c34d79ab020ab296051ead8a9795739e660df1e2d",
		"5a178cd5b4658924a405e0c2aee5e2eb32150f5950fafda6468bcac5f620f5d0",
		"1b21928f0bea5d85a4f8ad425ca5c1bf5b1b9f9d73d675947d41143e73fbf27c",
		"b0555185dbba5a7e5a6f618fbda6b6f1ff1d2f0ddb0c5d6f82c18af605bf3303",
		"a70db6bc552364a8b1323f79c2ed7053ebb9cf34510aa0997ee4e29eabde109a",
	},
	"full": {
		"de25c172751793f2c11d28c009a20fbcb529d3ea102d069a3cffe31bb2d63417",
		"ac119c8362abfbbba17cf1ee1486625a8e61f4c70be8dfe7b5155c905001e34a",
		"9dbfdc873e6b0037489d2907702e1562dc9884615c4a8ba4a07218e5cda99c31",
		"f90709ef6949eb33610c6e4449d2090c1e74abdb67c12a3da7985640a137f92f",
		"7c8211a81e87859573ba26cf0f0205dbf622efb0fc32db246a16c78780b40b2d",
		"ef037629c92168f7872b03f68d4b13dfab6c119f22dcc328ef8b5a34d3872b06",
		"b882133e2a0d79c07d2e40a48f9d1cbd62f31a4488f3c3d717dbce6a7f31c363",
	},
}

func variantByName(t testing.TB, name string) Variant {
	t.Helper()
	switch name {
	case "test":
		return Test
	case "lite":
		return Lite
	case "full":
		return Full
	}
	t.Fatalf("unknown variant %q", name)
	return Variant{}
}

func TestGoldenVectors(t *testing.T) {
	for name, digests := range goldenDigests {
		v := variantByName(t, name)
		if name == "full" && testing.Short() {
			t.Logf("short mode: skipping %s variant", name)
			continue
		}
		h, err := NewHasher(v)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range goldenInputs() {
			want, err := hex.DecodeString(digests[i])
			if err != nil {
				t.Fatal(err)
			}
			got := h.Sum(in)
			if !bytes.Equal(got[:], want) {
				t.Errorf("%s input %d: Hasher.Sum = %x, want %x", name, i, got, want)
			}
			if pooled := Sum(in, v); !bytes.Equal(pooled[:], want) {
				t.Errorf("%s input %d: pooled Sum = %x, want %x", name, i, pooled, want)
			}
		}
	}
}

// TestGoldenVectorsSoftAES pins the software explode/implode fallback to
// the same table, so non-AES-NI builds stay bit-identical too.
func TestGoldenVectorsSoftAES(t *testing.T) {
	h, err := NewHasher(Test)
	if err != nil {
		t.Fatal(err)
	}
	forceSoftAES(t)
	for i, in := range goldenInputs() {
		want, _ := hex.DecodeString(goldenDigests["test"][i])
		if got := h.Sum(in); !bytes.Equal(got[:], want) {
			t.Errorf("soft-AES input %d: %x, want %x", i, got, want)
		}
	}
}

// TestGrindMatchesGolden drives the Grind kernel over the structured
// 76-byte golden blob: for each variant, grinding with a target set just
// above the golden digest's compact value must find nonce 0 again and
// return the pinned digest (the blob already has its "nonce" bytes at
// offset 39, so splicing nonce 0 reproduces... it does not — splicing
// changes the bytes, so instead the expected digest is computed with Sum
// and Grind must agree with it exactly).
func TestGrindMatchesGolden(t *testing.T) {
	blob := goldenInputs()[6]
	for _, v := range []Variant{Test, Lite} {
		h, err := NewHasher(v)
		if err != nil {
			t.Fatal(err)
		}
		const off = 39
		for _, nonce := range []uint32{0, 1, 0xDEADBEEF} {
			want := func() [32]byte {
				b := append([]byte(nil), blob...)
				binary.LittleEndian.PutUint32(b[off:], nonce)
				return h.Sum(b)
			}()
			target := binary.LittleEndian.Uint32(want[28:]) + 1
			if target == 0 { // astronomically unlikely wrap; skip the nonce
				continue
			}
			saved := append([]byte(nil), blob...)
			n, sum, hashes, found := h.Grind(blob, off, target, nonce, 1)
			if !found || n != nonce || sum != want || hashes != 1 {
				t.Errorf("%s: Grind(start=%d) = (%d, %x, %d, %v), want (%d, %x, 1, true)",
					v.Name, nonce, n, sum, hashes, found, nonce, want)
			}
			if !bytes.Equal(blob, saved) {
				t.Errorf("%s: Grind mutated the caller's blob", v.Name)
			}
		}
	}
}

func TestGrindStrideSearch(t *testing.T) {
	h, err := NewHasher(Test)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 76)
	const off, target = 4, 1 << 28 // ~1/16 of nonces qualify
	// Reference: scan sequentially for the first qualifying nonce.
	seq, seqSum, _, ok := h.Grind(blob, off, target, 0, 1<<16)
	if !ok {
		t.Fatal("no qualifying nonce in 2^16 attempts")
	}
	// The striped search from start=seq%3 with stride 3 must rediscover it.
	n, sum, _, ok := h.GrindStride(blob, off, target, seq%3, 3, 1<<16)
	if !ok {
		t.Fatal("strided search found nothing")
	}
	if n > seq || (n == seq && sum != seqSum) {
		t.Errorf("strided search: nonce %d (sum %x), sequential found %d (%x)", n, sum, seq, seqSum)
	}
	// Exhaustion: a target of 0 can never be met.
	if _, _, hashes, found := h.Grind(blob, off, 0, 0, 7); found || hashes != 7 {
		t.Errorf("Grind with target 0: found=%v hashes=%d, want false/7", found, hashes)
	}
}

// TestPooledGrindRace grinds from two goroutines on pooled hashers — the
// webminer fleet's shape — under the race detector.
func TestPooledGrindRace(t *testing.T) {
	blob := make([]byte, 76)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				h, err := GetHasher(Test)
				if err != nil {
					t.Error(err)
					return
				}
				h.GrindStride(blob, 4, 1<<24, uint32(g), 2, 4)
				PutHasher(h)
				Sum(blob, Test)
			}
		}(g)
	}
	wg.Wait()
}

// TestSumAllocs pins the zero-allocation property of the pooled hash path
// for the Test variant (the profile large-scale simulation runs on). The
// pooled pin runs only without the race detector, which makes sync.Pool
// drop a random share of Puts, so a pooled Sum there sometimes allocates
// a fresh Hasher; the NewHasher Sum and Grind pins run either way.
func TestSumAllocs(t *testing.T) {
	in := goldenInputs()[6]
	if !raceEnabled {
		Sum(in, Test) // prime the pool
		if n := testing.AllocsPerRun(20, func() { Sum(in, Test) }); n != 0 {
			t.Errorf("pooled Sum allocates %.1f objects/op, want 0", n)
		}
	}
	h, err := NewHasher(Test)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { h.Sum(in) }); n != 0 {
		t.Errorf("Hasher.Sum allocates %.1f objects/op, want 0", n)
	}
	h.Grind(in, 4, 0, 0, 1) // size the blob scratch
	if n := testing.AllocsPerRun(20, func() { h.Grind(in, 4, 0, 0, 2) }); n != 0 {
		t.Errorf("Grind allocates %.1f objects/op, want 0", n)
	}
}

// TestExpandKeyMatchesCryptoAES verifies that the in-package AES-128 — key
// schedule plus block encryption, on both the dispatch path and the
// software fallback — is bit-identical to crypto/aes.
func TestExpandKeyMatchesCryptoAES(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		var key [16]byte
		var block [16]byte
		rng.Read(key[:])
		rng.Read(block[:])
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want [16]byte
		ref.Encrypt(want[:], block[:])

		var rk roundKeys
		expandKey(key[:], &rk)
		s0 := binary.LittleEndian.Uint64(block[0:])
		s1 := binary.LittleEndian.Uint64(block[8:])
		var got [16]byte
		g0, g1 := encryptBlockGo(&rk, s0, s1)
		binary.LittleEndian.PutUint64(got[0:], g0)
		binary.LittleEndian.PutUint64(got[8:], g1)
		if got != want {
			t.Fatalf("trial %d: encryptBlockGo %x, crypto/aes %x", trial, got, want)
		}

		// Whole lane buffer through the dispatch path (AES-NI when present).
		var lanes [16]uint64
		var lanesBytes [128]byte
		rng.Read(lanesBytes[:])
		for i := range lanes {
			lanes[i] = binary.LittleEndian.Uint64(lanesBytes[8*i:])
		}
		encryptLanes(&rk, &lanes)
		for blk := 0; blk < 8; blk++ {
			var w [16]byte
			ref.Encrypt(w[:], lanesBytes[16*blk:16*blk+16])
			var g [16]byte
			binary.LittleEndian.PutUint64(g[0:], lanes[2*blk])
			binary.LittleEndian.PutUint64(g[8:], lanes[2*blk+1])
			if g != w {
				t.Fatalf("trial %d block %d: encryptLanes %x, crypto/aes %x", trial, blk, g, w)
			}
		}
	}
}

// TestAesRound64MatchesByteReference checks the T-table round against the
// byte-wise algebraic formulation on random states and keys.
func TestAesRound64MatchesByteReference(t *testing.T) {
	f := func(s0, s1, k0, k1 uint64) bool {
		var src, key, want [16]byte
		binary.LittleEndian.PutUint64(src[0:], s0)
		binary.LittleEndian.PutUint64(src[8:], s1)
		binary.LittleEndian.PutUint64(key[0:], k0)
		binary.LittleEndian.PutUint64(key[8:], k1)
		aesRound(&want, &src, &key)
		g0, g1 := aesRound64(s0, s1, k0, k1)
		return g0 == binary.LittleEndian.Uint64(want[0:]) &&
			g1 == binary.LittleEndian.Uint64(want[8:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

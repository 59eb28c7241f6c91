// Package cryptonight implements the memory-hard proof-of-work used by
// Monero and thus by every browser miner the paper studies (CryptoNote
// standard 008). The implementation is structurally faithful:
//
//  1. the input is absorbed into a 200-byte Keccak-1600 state,
//  2. an AES-keyed "explode" fills a large scratchpad (2 MB in the full
//     profile) from the state,
//  3. the main loop performs Iterations data-dependent read-modify-write
//     rounds over the scratchpad mixing AES, XOR and a 64×64→128 bit
//     multiply-add,
//  4. an AES-keyed "implode" folds the whole scratchpad back into the state,
//  5. the state is permuted once more and hashed to the final 32 bytes.
//
// Two deliberate substitutions versus the reference (documented in
// DESIGN.md): the single AES rounds are replaced by full AES-128 block
// encryptions (AES-NI on amd64, T-table software elsewhere — bit-identical
// to crypto/aes), and the final hash is always Keccak-256 instead of the
// 2-bit BLAKE/Grøstl/JH/Skein selector. Neither changes any property the
// paper's measurements rely on: the function remains deterministic,
// memory-hard, CPU-bound and verifiable, and the full profile lands in the
// same tens-of-hashes-per-second regime as the paper's 2013 MacBook
// (20 H/s) that calibrates Figure 4's top axis.
//
// The scratchpad is held as little-endian uint64 lanes, so the 2^12–2^19
// memory-hard rounds do no byte marshalling at all. Explode, the main loop
// and implode have two implementations, chosen once per hash: on amd64
// CPUs with AES-NI, four assembly kernels (kernels_amd64.s — one AESENC
// per main-loop round, a second main loop that runs two hashes' rounds
// interleaved for Sum2, eight AES blocks in flight through explode and
// implode, each kernel entered in bounded slices so a Full-profile hash
// stays preemptible); everywhere else walkGo, which runs the same steps on
// uint64 register pairs through the T-tables (aesround.go, aeskey.go) and
// is the reference the kernels are tested against. Mining and verification
// code paths reuse Hashers: either explicitly (NewHasher, one per
// goroutine) or through the per-variant pool behind Sum and Grind.
package cryptonight

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/keccak"
)

// Variant selects a scratchpad/iteration profile. Profiles other than Full
// trade memory hardness for speed so that simulations of hundreds of
// thousands of web miners remain tractable; all profiles share every code
// path.
type Variant struct {
	Name           string
	ScratchpadSize int // bytes; must be a power of two and a multiple of 128
	Iterations     int
}

// Standard profiles.
var (
	// Full mirrors CryptoNight v0: 2 MB scratchpad, 2^19 iterations.
	Full = Variant{Name: "full", ScratchpadSize: 1 << 21, Iterations: 1 << 19}
	// Lite halves both parameters (the CryptoNight-Lite profile used by
	// some web miners to reduce page jank).
	Lite = Variant{Name: "lite", ScratchpadSize: 1 << 20, Iterations: 1 << 18}
	// Test is a reduced profile for unit tests and large-scale simulation.
	Test = Variant{Name: "test", ScratchpadSize: 1 << 16, Iterations: 1 << 12}
)

func (v Variant) validate() error {
	if v.ScratchpadSize <= 0 || v.ScratchpadSize&(v.ScratchpadSize-1) != 0 {
		return fmt.Errorf("cryptonight: scratchpad size %d not a power of two", v.ScratchpadSize)
	}
	if v.ScratchpadSize%128 != 0 {
		return fmt.Errorf("cryptonight: scratchpad size %d not a multiple of 128", v.ScratchpadSize)
	}
	if v.Iterations <= 0 {
		return fmt.Errorf("cryptonight: iterations %d not positive", v.Iterations)
	}
	return nil
}

// Hasher computes CryptoNight hashes, reusing its scratchpad across calls.
// It is not safe for concurrent use; mining code runs one Hasher per
// goroutine (exactly as the web miner runs one scratchpad per worker),
// either via NewHasher or borrowed from the per-variant pool with
// GetHasher/PutHasher.
type Hasher struct {
	v   Variant
	pad []uint64 // scratchpad as little-endian uint64 lanes

	// Per-hash working state, kept on the Hasher so Sum allocates nothing
	// and so a kernel entered in slices finds where the last one stopped:
	// the two expanded AES-128 schedules, the 128-byte explode/implode lane
	// buffer and the main loop's registers a (ab[0:2]) and b (ab[2:4]).
	rk0, rk1 roundKeys
	text     [16]uint64
	ab       [4]uint64

	// blob is Grind's reusable copy of the job blob.
	blob []byte
}

// NewHasher allocates a Hasher for the given variant.
func NewHasher(v Variant) (*Hasher, error) {
	if err := v.validate(); err != nil {
		return nil, err
	}
	return &Hasher{v: v, pad: make([]uint64, v.ScratchpadSize/8)}, nil
}

// Variant returns the profile this Hasher was built with.
func (h *Hasher) Variant() Variant { return h.v }

// Sum computes the CryptoNight hash of data.
//
//lint:hotpath
func (h *Hasher) Sum(data []byte) [32]byte {
	state := h.absorb(data)
	// Explode, main loop, implode: state[64:192] goes in, its fold over
	// the worked scratchpad comes out. One dispatch per hash picks the
	// AES-NI kernels or walkGo (kernels_*.go).
	h.walk(&state)
	return finish(&state)
}

// Sum2 computes the CryptoNight hashes of a, on h, and of b, on o: the
// same digests as h.Sum(a) and o.Sum(b), in less time than both. The two
// main loops run interleaved, so one hash's serial round fills the AES
// unit and multiplier the other's leaves idle; absorb, explode, implode
// and the final hash stay per hash. o must be a second Hasher of h's
// variant.
//
//lint:hotpath
func (h *Hasher) Sum2(o *Hasher, a, b []byte) (x, y [32]byte) {
	if o == h || o.v != h.v {
		panic("cryptonight: Sum2 needs a second Hasher of the same variant")
	}
	sa, sb := h.absorb(a), o.absorb(b)
	h.walk2(o, &sa, &sb)
	return finish(&sa), finish(&sb)
}

// absorb is a hash's first step: the Keccak state of data, and the two
// AES-128 schedules keyed from it.
func (h *Hasher) absorb(data []byte) [200]byte {
	state := keccak.State1600(data)
	expandKey(state[0:16], &h.rk0)
	expandKey(state[32:48], &h.rk1)
	return state
}

// finish is a hash's last step: the final permutation of the imploded
// state, then Keccak-256 of it.
func finish(state *[200]byte) [32]byte {
	var st [25]uint64
	for i := 0; i < 25; i++ {
		st[i] = binary.LittleEndian.Uint64(state[i*8:])
	}
	keccak.Permute(&st)
	var out [200]byte
	for i := 0; i < 25; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], st[i])
	}
	return keccak.Sum256(out[:])
}

// loadText sets the lane buffer to state[64:192], the seed of both the
// explode and the implode chain.
func (h *Hasher) loadText(state *[200]byte) {
	for i := range h.text {
		h.text[i] = binary.LittleEndian.Uint64(state[64+8*i:])
	}
}

// storeText writes the imploded lane buffer back over state[64:192].
func (h *Hasher) storeText(state *[200]byte) {
	for i, v := range h.text {
		binary.LittleEndian.PutUint64(state[64+8*i:], v)
	}
}

// loadAB derives the main loop's two 16-byte registers from the Keccak
// state: a = state[0:16] ^ state[32:48], b = state[16:32] ^ state[48:64].
func (h *Hasher) loadAB(state *[200]byte) {
	for i := range h.ab {
		h.ab[i] = binary.LittleEndian.Uint64(state[8*i:]) ^ binary.LittleEndian.Uint64(state[32+8*i:])
	}
}

// mask turns register a (resp. c) into the byte address of a 16-byte
// scratchpad line.
func (h *Hasher) mask() uint64 { return uint64(h.v.ScratchpadSize-1) &^ 0xF }

// walkGo is the portable explode / main loop / implode: AES through the
// T-tables, everything on uint64 lanes. It is the only path off amd64 and
// without AES-NI, and the reference the kernels are tested against.
//
//lint:hotpath
func (h *Hasher) walkGo(state *[200]byte) {
	pad := h.pad
	text := &h.text

	// Explode: expand state[64:192] into the scratchpad, 128 bytes at a
	// time through the AES lane buffer.
	h.loadText(state)
	for off := 0; off < len(pad); off += 16 {
		encryptLanes(&h.rk0, text)
		copy(pad[off:off+16], text[:])
	}

	h.loadAB(state)
	a0, a1, b0, b1 := h.ab[0], h.ab[1], h.ab[2], h.ab[3]
	// >>3 converts a line's byte address to its first uint64 lane.
	mask := h.mask()
	for i := h.v.Iterations; i > 0; i-- {
		// First half-round: one AES round on the a-addressed cache line,
		// keyed directly by register a (no key schedule — as in the
		// reference implementation).
		idx := (a0 & mask) >> 3
		c0, c1 := aesRound64(pad[idx], pad[idx+1], a0, a1)
		pad[idx] = b0 ^ c0
		pad[idx+1] = b1 ^ c1

		// Second half-round: multiply-add on the c-addressed cache line.
		idx2 := (c0 & mask) >> 3
		d0 := pad[idx2]
		d1 := pad[idx2+1]
		hi, lo := bits.Mul64(c0, d0)
		a0 += hi
		a1 += lo
		pad[idx2] = a0
		pad[idx2+1] = a1
		a0 ^= d0
		a1 ^= d1
		b0, b1 = c0, c1
	}

	// Implode: fold the scratchpad back into state[64:192].
	h.loadText(state)
	for off := 0; off < len(pad); off += 16 {
		line := pad[off : off+16 : off+16]
		for i := 0; i < 16; i++ {
			text[i] ^= line[i]
		}
		encryptLanes(&h.rk1, text)
	}
	h.storeText(state)
}

// Grind searches nonces n = start, start+1, … for one that meets the
// compact pool target, splicing each (little-endian) into
// blob[nonceOffset:nonceOffset+4]. The job setup — the blob copy and the
// bounds checks — is hoisted out of the nonce loop; blob itself is never
// written. It stops after maxHashes attempts, reporting how many hashes
// were computed either way.
//
//lint:hotpath
func (h *Hasher) Grind(blob []byte, nonceOffset int, target uint32, start uint32, maxHashes int) (nonce uint32, sum [32]byte, hashes int, found bool) {
	return h.GrindStride(blob, nonceOffset, target, start, 1, maxHashes)
}

// GrindStride is Grind scanning n = start, start+stride, start+2·stride, …
// — the layout a thread pool uses to stripe one nonce space across workers
// without duplicating an attempt.
//
//lint:hotpath
func (h *Hasher) GrindStride(blob []byte, nonceOffset int, target uint32, start, stride uint32, maxHashes int) (nonce uint32, sum [32]byte, hashes int, found bool) {
	if nonceOffset < 0 || nonceOffset+4 > len(blob) {
		//lint:ignore hotpath programming-error guard, runs once per grind call, not per hash
		panic(fmt.Sprintf("cryptonight: nonce offset %d out of range for %d-byte blob", nonceOffset, len(blob)))
	}
	h.blob = append(h.blob[:0], blob...)
	buf := h.blob
	n := start
	for i := 0; i < maxHashes; i++ {
		binary.LittleEndian.PutUint32(buf[nonceOffset:], n)
		s := h.Sum(buf)
		hashes++
		if CheckCompactTarget(s, target) {
			return n, s, hashes, true
		}
		n += stride
	}
	return 0, sum, hashes, false
}

// pools holds one sync.Pool of Hashers per variant, so Sum/Grind
// convenience calls and transient verifiers reuse scratchpads instead of
// allocating multi-MB pads per call.
var pools sync.Map // Variant -> *sync.Pool

// GetHasher borrows a Hasher for the variant from the per-variant pool.
// Return it with PutHasher when done.
func GetHasher(v Variant) (*Hasher, error) {
	if p, ok := pools.Load(v); ok {
		return p.(*sync.Pool).Get().(*Hasher), nil
	}
	if err := v.validate(); err != nil {
		return nil, err
	}
	p, _ := pools.LoadOrStore(v, &sync.Pool{New: func() interface{} {
		return &Hasher{v: v, pad: make([]uint64, v.ScratchpadSize/8)}
	}})
	return p.(*sync.Pool).Get().(*Hasher), nil
}

// PutHasher returns a Hasher obtained from GetHasher (or NewHasher) to its
// variant's pool.
func PutHasher(h *Hasher) {
	if h == nil {
		return
	}
	if p, ok := pools.Load(h.v); ok {
		p.(*sync.Pool).Put(h)
	}
}

// Sum is a convenience wrapper computing one hash on a pooled Hasher; at
// steady state it allocates nothing.
func Sum(data []byte, v Variant) [32]byte {
	h, err := GetHasher(v)
	if err != nil {
		panic(err)
	}
	sum := h.Sum(data)
	PutHasher(h)
	return sum
}

// CheckDifficulty reports whether hash satisfies the given difficulty under
// the Monero consensus rule: hash (interpreted as a little-endian 256-bit
// integer) multiplied by difficulty must not overflow 256 bits.
func CheckDifficulty(hash [32]byte, difficulty uint64) bool {
	if difficulty == 0 {
		return true
	}
	var w [4]uint64
	for i := 0; i < 4; i++ {
		w[i] = binary.LittleEndian.Uint64(hash[i*8:])
	}
	// Cascade multiply hash × difficulty; the product's bits above 2^256
	// are the final carry. The block qualifies iff that carry is zero.
	var carry uint64
	for i := 0; i < 4; i++ {
		hi, lo := bits.Mul64(w[i], difficulty)
		_, c := bits.Add64(lo, carry, 0)
		carry, _ = bits.Add64(hi, 0, c)
	}
	return carry == 0
}

// DifficultyForTarget returns the pool-style 32-bit compact target encoding
// used by Coinhive-like job messages: target = floor(2^32 / difficulty).
// Under the Coinhive convention (see CheckCompactTarget) a share qualifies
// when the hash's trailing 4 bytes, hash[28:32] read as a little-endian
// uint32, are below the target.
func DifficultyForTarget(difficulty uint64) uint32 {
	if difficulty == 0 {
		return ^uint32(0)
	}
	t := (uint64(1) << 32) / difficulty
	if t > uint64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(t)
}

// CheckCompactTarget reports whether hash meets a compact 32-bit pool
// target: the hash's trailing 4 bytes, hash[28:32] read as a little-endian
// uint32, must be strictly below target. The trailing bytes are the most
// significant ones of the little-endian 256-bit hash value, which is what
// makes this a cheap proxy for the full CheckDifficulty comparison — the
// convention the Coinhive web miner implements.
func CheckCompactTarget(hash [32]byte, target uint32) bool {
	v := binary.LittleEndian.Uint32(hash[28:])
	return v < target
}

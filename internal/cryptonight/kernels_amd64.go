//go:build amd64 && gc

package cryptonight

// hasAESNI gates the assembly kernels on CPUID.1:ECX bit 25 (AES-NI).
var hasAESNI = cpuid1ECX()&(1<<25) != 0

// hasVAES gates the 4-lane ZMM explode and implode kernels: CPUID.7 must
// show AVX512F (EBX bit 16) and VAES (ECX bit 9), and XCR0 must show the
// OS saving the opmask and all ZMM state (bits 5–7) beside XMM and YMM
// (bits 1–2), which it can only be asked once CPUID.1 shows OSXSAVE
// (ECX bit 27).
var hasVAES = func() bool {
	if !hasAESNI || cpuid1ECX()&(1<<27) == 0 || xgetbvAsm()&0xe6 != 0xe6 {
		return false
	}
	ebx, ecx := cpuidAsm(7)
	return ebx&(1<<16) != 0 && ecx&(1<<9) != 0
}()

func cpuid1ECX() uint32 {
	_, ecx := cpuidAsm(1)
	return ecx
}

// Kernel slice sizes. Assembly has no preemption points, so a kernel call
// holds off a stop-the-world until it returns; entering each kernel in
// bounded slices, with the state between slices carried in the Hasher,
// keeps that near 0.1 ms for every profile. Full's 2 MB pad misses cache
// on most rounds (~32 ns each, against ~10 ns on Test's 64 KiB), so its
// 2^19 rounds in one call would be 17 ms; 2^12 of them are 0.13 ms. A
// 64 KiB explode/implode slice is ~8 µs. An n-lane main-loop call runs
// mainSlice/n rounds of each of its hashes, mainSlice rounds in all, no
// longer than a one-lane call; a 4-lane ZMM explode/implode slice, four
// 64 KiB pads, is ~17 µs.
const (
	mainSlice = 1 << 12        // main-loop iterations per call
	padSlice  = (64 << 10) / 8 // scratchpad lanes (64 KiB) per explode/implode call
)

//go:noescape
func cpuidAsm(leaf uint32) (ebx, ecx uint32)

//go:noescape
func xgetbvAsm() (eax uint32)

//go:noescape
func explodeAsm(rk *roundKeys, text *[16]uint64, pad *uint64, chunks int)

//go:noescape
func implodeAsm(rk *roundKeys, text *[16]uint64, pad *uint64, chunks int)

//go:noescape
func mainLoopAsm(pad *uint64, mask uint64, iters int, ab *[4]uint64)

//go:noescape
func explode4Asm(hs *[4]*Hasher, off int, chunks int)

//go:noescape
func implode4Asm(hs *[4]*Hasher, off int, chunks int)

//go:noescape
func mainLoopNAsm(hs *[8]*Hasher, n int, mask uint64, iters int)

// walk runs explode, the main loop and implode for one hash — on the AES-NI
// kernels when the CPU has them, else on the pure-Go path.
//
//lint:hotpath
func (h *Hasher) walk(state *[200]byte) {
	if !hasAESNI {
		h.walkGo(state)
		return
	}
	h.explode(state)
	for left := h.v.Iterations; left > 0; left -= mainSlice {
		mainLoopAsm(&h.pad[0], h.mask(), min(mainSlice, left), &h.ab)
	}
	h.implode(state)
}

// walkN is walk for hs[0:n] at once (2 ≤ n ≤ 8), hs[i]'s over st[i]:
// the n main loops run as one interleaved kernel, a slice of each per
// call. On CPUs with VAES the explodes and implodes run four lanes to a
// ZMM kernel call; a last two or three lanes fill the call's four slots
// by repeating their last Hasher, which writes that pad's bytes twice
// over but hashes nothing more, and a lone last lane, or every lane
// without VAES, explodes and implodes on its own. Lanes n and up are not
// touched.
//
//lint:hotpath
func walkN(hs *[8]*Hasher, st *[8][200]byte, n int) {
	if !hasAESNI {
		for i, h := range hs[:n] {
			h.walkGo(&st[i])
		}
		return
	}
	h0 := hs[0]
	// zmm is the number of lanes the 4-lane ZMM kernels take.
	zmm := 0
	if hasVAES {
		zmm = n
		if n%4 == 1 {
			zmm--
		}
	}
	var q4 [4]*Hasher
	for q := 0; q < zmm; q += 4 {
		for i := range q4 {
			l := min(q+i, zmm-1)
			q4[i] = hs[l]
			hs[l].loadText(&st[l])
			hs[l].loadAB(&st[l])
		}
		for off := 0; off < len(h0.pad); off += padSlice {
			explode4Asm(&q4, off, min(padSlice, len(h0.pad)-off)/16)
		}
	}
	for i := zmm; i < n; i++ {
		hs[i].explode(&st[i])
	}
	slice := mainSlice / n
	for left := h0.v.Iterations; left > 0; left -= slice {
		mainLoopNAsm(hs, n, h0.mask(), min(slice, left))
	}
	for q := 0; q < zmm; q += 4 {
		for i := range q4 {
			l := min(q+i, zmm-1)
			q4[i] = hs[l]
			hs[l].loadText(&st[l])
		}
		for off := 0; off < len(h0.pad); off += padSlice {
			implode4Asm(&q4, off, min(padSlice, len(h0.pad)-off)/16)
		}
		for i := q; i < min(q+4, zmm); i++ {
			hs[i].storeText(&st[i])
		}
	}
	for i := zmm; i < n; i++ {
		hs[i].implode(&st[i])
	}
}

// explode fills the scratchpad from state[64:192] and loads the main
// loop's registers from the state.
func (h *Hasher) explode(state *[200]byte) {
	pad := h.pad
	h.loadText(state)
	for off := 0; off < len(pad); off += padSlice {
		explodeAsm(&h.rk0, &h.text, &pad[off], min(padSlice, len(pad)-off)/16)
	}
	h.loadAB(state)
}

// implode folds the worked scratchpad back into state[64:192].
func (h *Hasher) implode(state *[200]byte) {
	pad := h.pad
	h.loadText(state)
	for off := 0; off < len(pad); off += padSlice {
		implodeAsm(&h.rk1, &h.text, &pad[off], min(padSlice, len(pad)-off)/16)
	}
	h.storeText(state)
}

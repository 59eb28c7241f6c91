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
// 64 KiB explode/implode slice is ~8 µs. A 4-lane main-loop call runs
// mainSlice/4 rounds of each of its hashes, the same bound; a 4-lane
// ZMM explode/implode slice, four 64 KiB pads, is ~17 µs.
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
func mainLoop4Asm(hs *[4]*Hasher, mask uint64, iters int)

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

// walk4 is walk for four hashes at once, hs[i]'s over st[i]: the four
// main loops run as one interleaved kernel, a slice of each per call, and
// on CPUs with VAES the four explodes and implodes run as one ZMM kernel
// each; otherwise each lane explodes and implodes on its own.
//
//lint:hotpath
func walk4(hs *[4]*Hasher, st *[4][200]byte) {
	if !hasAESNI {
		for i, h := range hs {
			h.walkGo(&st[i])
		}
		return
	}
	h0 := hs[0]
	if hasVAES {
		for i, h := range hs {
			h.loadText(&st[i])
			h.loadAB(&st[i])
		}
		for off := 0; off < len(h0.pad); off += padSlice {
			explode4Asm(hs, off, min(padSlice, len(h0.pad)-off)/16)
		}
	} else {
		for i, h := range hs {
			h.explode(&st[i])
		}
	}
	for left := h0.v.Iterations; left > 0; left -= mainSlice / 4 {
		mainLoop4Asm(hs, h0.mask(), min(mainSlice/4, left))
	}
	if hasVAES {
		for i, h := range hs {
			h.loadText(&st[i])
		}
		for off := 0; off < len(h0.pad); off += padSlice {
			implode4Asm(hs, off, min(padSlice, len(h0.pad)-off)/16)
		}
		for i, h := range hs {
			h.storeText(&st[i])
		}
	} else {
		for i, h := range hs {
			h.implode(&st[i])
		}
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

//go:build amd64 && gc

package cryptonight

// hasAESNI gates the assembly kernels on CPUID.1:ECX bit 25 (AES-NI).
var hasAESNI = cpuidAsm(1)&(1<<25) != 0

// Kernel slice sizes. Assembly has no preemption points, so a kernel call
// holds off a stop-the-world until it returns; entering each kernel in
// bounded slices, with the state between slices carried in the Hasher,
// keeps that near 0.1 ms for every profile. Full's 2 MB pad misses cache
// on most rounds (~32 ns each, against ~10 ns on Test's 64 KiB), so its
// 2^19 rounds in one call would be 17 ms; 2^12 of them are 0.13 ms. A
// 64 KiB explode/implode slice is ~8 µs.
const (
	mainSlice = 1 << 12        // main-loop iterations per call
	padSlice  = (64 << 10) / 8 // scratchpad lanes (64 KiB) per explode/implode call
)

//go:noescape
func cpuidAsm(leaf uint32) (ecx uint32)

//go:noescape
func explodeAsm(rk *roundKeys, text *[16]uint64, pad *uint64, chunks int)

//go:noescape
func implodeAsm(rk *roundKeys, text *[16]uint64, pad *uint64, chunks int)

//go:noescape
func mainLoopAsm(pad *uint64, mask uint64, iters int, ab *[4]uint64)

//go:noescape
func mainLoop2Asm(padA, padB *uint64, mask uint64, iters int, abA, abB *[4]uint64)

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

// walk2 is walk for two hashes at once, h's over sa and o's over sb: each
// explodes and implodes on its own, and the two main loops run as one
// interleaved kernel, a slice of each per call.
//
//lint:hotpath
func (h *Hasher) walk2(o *Hasher, sa, sb *[200]byte) {
	if !hasAESNI {
		h.walkGo(sa)
		o.walkGo(sb)
		return
	}
	h.explode(sa)
	o.explode(sb)
	for left := h.v.Iterations; left > 0; left -= mainSlice {
		mainLoop2Asm(&h.pad[0], &o.pad[0], h.mask(), min(mainSlice, left), &h.ab, &o.ab)
	}
	h.implode(sa)
	o.implode(sb)
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

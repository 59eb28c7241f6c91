//go:build !amd64 || !gc

package cryptonight

// walk runs explode, the main loop and implode for one hash. Builds without
// the amd64 kernels always take the pure-Go path.
func (h *Hasher) walk(state *[200]byte) { h.walkGo(state) }

// walk2 is walk for two hashes: without the kernels there is nothing to
// interleave, so it is two walks.
func (h *Hasher) walk2(o *Hasher, sa, sb *[200]byte) {
	h.walkGo(sa)
	o.walkGo(sb)
}

//go:build !amd64 || !gc

package cryptonight

// walk runs explode, the main loop and implode for one hash. Builds without
// the amd64 kernels always take the pure-Go path.
func (h *Hasher) walk(state *[200]byte) { h.walkGo(state) }

// walk4 is walk for four hashes: without the kernels there is nothing to
// interleave, so it is four walks.
func walk4(hs *[4]*Hasher, st *[4][200]byte) {
	for i, h := range hs {
		h.walkGo(&st[i])
	}
}

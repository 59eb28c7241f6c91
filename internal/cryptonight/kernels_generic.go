//go:build !amd64 || !gc

package cryptonight

// walk runs explode, the main loop and implode for one hash. Builds without
// the amd64 kernels always take the pure-Go path.
func (h *Hasher) walk(state *[200]byte) { h.walkGo(state) }

// walkN is walk for hs[0:n]: without the kernels there is nothing to
// interleave, so it is n walks.
func walkN(hs *[8]*Hasher, st *[8][200]byte, n int) {
	for i, h := range hs[:n] {
		h.walkGo(&st[i])
	}
}

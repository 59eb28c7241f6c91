//go:build !race

package cryptonight

// raceEnabled reports whether the race detector is instrumenting this
// test binary. Under it sync.Pool drops a random quarter of Puts, so a
// pooled call reallocates Hashers and its allocation pin cannot hold.
const raceEnabled = false

//go:build !amd64 || !gc

package cryptonight

import "testing"

// forceSoftAES is a no-op on builds where walkGo is the only path.
func forceSoftAES(t *testing.T) {}

// batchPaths lists the SumBatch paths: off amd64, walkGo alone.
func batchPaths() []string { return []string{"walkGo"} }

// forcePath is a no-op on builds where walkGo is the only path.
func forcePath(t *testing.T, path string) {}

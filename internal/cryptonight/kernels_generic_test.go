//go:build !amd64 || !gc

package cryptonight

import "testing"

// forceSoftAES is a no-op on builds where walkGo is the only path.
func forceSoftAES(t *testing.T) {}

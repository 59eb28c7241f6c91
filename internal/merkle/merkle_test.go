package merkle

import (
	"testing"
	"testing/quick"

	"repro/internal/keccak"
)

func leaves(n int) []Hash {
	out := make([]Hash, n)
	for i := range out {
		out[i] = keccak.Sum256([]byte{byte(i), byte(i >> 8), 0x5a})
	}
	return out
}

func TestTreeHashSingleLeaf(t *testing.T) {
	h := leaves(1)
	if TreeHash(h) != h[0] {
		t.Error("single-leaf root must be the leaf itself")
	}
}

func TestTreeHashTwoLeaves(t *testing.T) {
	h := leaves(2)
	want := hashPair(h[0], h[1])
	if TreeHash(h) != want {
		t.Error("two-leaf root must be H(h0||h1)")
	}
}

func TestTreeHashThreeLeaves(t *testing.T) {
	// CryptoNote: cnt=2, carried=1 -> root = H(h0 || H(h1||h2)).
	h := leaves(3)
	want := hashPair(h[0], hashPair(h[1], h[2]))
	if TreeHash(h) != want {
		t.Error("three-leaf root mismatch with hand-computed CryptoNote shape")
	}
}

func TestTreeHashFourLeaves(t *testing.T) {
	h := leaves(4)
	want := hashPair(hashPair(h[0], h[1]), hashPair(h[2], h[3]))
	if TreeHash(h) != want {
		t.Error("four-leaf root mismatch")
	}
}

func TestTreeHashFiveLeaves(t *testing.T) {
	// n=5: cnt=4, carried=3: first round = [h0,h1,h2,H(h3||h4)].
	h := leaves(5)
	want := hashPair(hashPair(h[0], h[1]), hashPair(h[2], hashPair(h[3], h[4])))
	if TreeHash(h) != want {
		t.Error("five-leaf root mismatch")
	}
}

func TestTreeHashSensitivity(t *testing.T) {
	h := leaves(7)
	root := TreeHash(h)
	h2 := leaves(7)
	h2[3][0] ^= 1
	if TreeHash(h2) == root {
		t.Error("flipping one leaf bit did not change the root")
	}
	// Order matters.
	h3 := leaves(7)
	h3[0], h3[1] = h3[1], h3[0]
	if TreeHash(h3) == root {
		t.Error("swapping leaves did not change the root")
	}
}

// referenceTreeHash is the CryptoNote tree hash written level by level:
// carry the leading 2·cnt−n leaves, pair the rest, then halve to the root.
func referenceTreeHash(h []Hash) Hash {
	if len(h) == 1 {
		return h[0]
	}
	cnt := 1
	for 2*cnt < len(h) {
		cnt *= 2
	}
	carried := 2*cnt - len(h)
	level := append([]Hash{}, h[:carried]...)
	for i := carried; i < len(h); i += 2 {
		level = append(level, hashPair(h[i], h[i+1]))
	}
	for len(level) > 1 {
		var next []Hash
		for i := 0; i < len(level); i += 2 {
			next = append(next, hashPair(level[i], level[i+1]))
		}
		level = next
	}
	return level[0]
}

// TestTreeHashMatchesReference checks the in-place reduction against the
// level-by-level definition across every carry shape up to 33 leaves.
func TestTreeHashMatchesReference(t *testing.T) {
	for n := 1; n <= 33; n++ {
		h := leaves(n)
		if got, want := TreeHash(h), referenceTreeHash(h); got != want {
			t.Fatalf("n=%d: TreeHash = %x, want %x", n, got[:4], want[:4])
		}
	}
}

func TestQuickRootDeterministicAndInjectiveish(t *testing.T) {
	f := func(seed uint16, flip uint16) bool {
		n := int(seed%60) + 1
		h := leaves(n)
		r1 := TreeHash(h)
		r2 := TreeHash(h)
		if r1 != r2 {
			return false
		}
		// Mutate one leaf: root must change.
		h[int(flip)%n][int(flip)%32] ^= 0xff
		return TreeHash(h) != r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TreeHash(nil) did not panic")
		}
	}()
	TreeHash(nil)
}

func BenchmarkTreeHash100(b *testing.B) {
	h := leaves(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TreeHash(h)
	}
}

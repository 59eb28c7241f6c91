// Package merkle implements the Monero transaction tree hash ("tree_hash",
// CryptoNote standard). The root of this tree is embedded in the block
// hashing blob, which is exactly what the paper's §4.2 block-attribution
// methodology compares: the Merkle root recovered from a pool's PoW input
// against the Merkle root of the transactions in the block that was actually
// mined on top of the referenced predecessor.
//
// The CryptoNote tree hash is not a plain padded binary tree: for leaf
// counts that are not powers of two, the 2*cnt-count leading hashes are
// carried verbatim into the first reduction round, where cnt is the largest
// power of two not exceeding count.
package merkle

import "repro/internal/keccak"

// Hash is a 32-byte node in the transaction tree.
type Hash = [32]byte

func hashPair(a, b Hash) Hash {
	var buf [64]byte
	copy(buf[:32], a[:])
	copy(buf[32:], b[:])
	return keccak.Sum256(buf[:])
}

// TreeHash computes the CryptoNote tree hash of the given leaf hashes.
// It panics on an empty input: a Monero block always contains at least the
// coinbase transaction.
func TreeHash(hashes []Hash) Hash {
	switch n := len(hashes); {
	case n == 0:
		panic("merkle: tree hash of zero leaves")
	case n == 1:
		return hashes[0]
	case n == 2:
		return hashPair(hashes[0], hashes[1])
	default:
		cnt := 1
		for cnt<<1 < n {
			cnt <<= 1
		}
		// cnt is now the largest power of two strictly less than n
		// (n > 2 here), matching the reference tree-hash.
		ints := make([]Hash, cnt)
		carried := 2*cnt - n
		copy(ints, hashes[:carried])
		for i, j := carried, carried; i < n; i, j = i+2, j+1 {
			ints[j] = hashPair(hashes[i], hashes[i+1])
		}
		for cnt > 2 {
			cnt >>= 1
			for i := 0; i < cnt; i++ {
				ints[i] = hashPair(ints[2*i], ints[2*i+1])
			}
		}
		return hashPair(ints[0], ints[1])
	}
}

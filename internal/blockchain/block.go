package blockchain

import (
	"encoding/binary"
	"fmt"

	"repro/internal/keccak"
	"repro/internal/merkle"
	"repro/internal/varint"
)

// Header is the Monero-style block header (Figure 1 of the paper):
// versions, timestamp, pointer to the previous block, and the PoW nonce.
type Header struct {
	majorVersion uint64
	minorVersion uint64
	Timestamp    uint64 // UNIX seconds
	PrevHash     [32]byte
	Nonce        uint32
}

// NonceOffset is the byte offset of the nonce within the hashing blob. The
// miner mutates exactly these four bytes while searching; pools rely on the
// offset when splicing client nonces back into templates, and Coinhive's
// obfuscation XORs the blob a few bytes further in (see internal/stratum).
func (h Header) NonceOffset() int {
	return varint.Len(h.majorVersion) + varint.Len(h.minorVersion) + varint.Len(h.Timestamp) + 32
}

// appendHeader serialises the header fields in wire order.
func (h Header) appendHeader(dst []byte) []byte {
	dst = varint.Append(dst, h.majorVersion)
	dst = varint.Append(dst, h.minorVersion)
	dst = varint.Append(dst, h.Timestamp)
	dst = append(dst, h.PrevHash[:]...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], h.Nonce)
	return append(dst, n[:]...)
}

// Block bundles a header with its coinbase transaction and the hashes of
// the mempool transactions it includes. Full transaction bodies for
// non-coinbase transactions live in the transaction pool; consensus only
// needs their hashes (they are the Merkle leaves).
type Block struct {
	Header
	Coinbase Transaction
	TxHashes [][32]byte
}

// numTransactions counts all transactions including the coinbase.
func (b *Block) numTransactions() int { return 1 + len(b.TxHashes) }

// merkleRoot computes the CryptoNote tree hash over the coinbase hash
// followed by the included transaction hashes. The common simulation case —
// a coinbase-only block — reduces to the coinbase hash with no allocation;
// small transaction sets gather their leaves on the stack.
func (b *Block) merkleRoot() [32]byte {
	if len(b.TxHashes) == 0 {
		return b.Coinbase.Hash()
	}
	var stack [8]merkle.Hash
	var leaves []merkle.Hash
	if n := b.numTransactions(); n <= len(stack) {
		leaves = stack[:0]
	} else {
		leaves = make([]merkle.Hash, 0, n)
	}
	leaves = append(leaves, b.Coinbase.Hash())
	leaves = append(leaves, b.TxHashes...)
	return merkle.TreeHash(leaves)
}

// hashingBlob returns the PoW input: header bytes, Merkle root, and the
// transaction count. This is exactly the "PoW Input" of the paper's
// Figure 1 and the blob that pools push to web miners as jobs.
func (b *Block) hashingBlob() []byte {
	return b.AppendHashingBlob(make([]byte, 0, 128))
}

// AppendHashingBlob appends the PoW input to dst, reusing its capacity; the
// pool's template refresh and the chain's append path pass scratch buffers
// so the hot path allocates nothing.
func (b *Block) AppendHashingBlob(dst []byte) []byte {
	return b.appendBlobWithRoot(dst, b.merkleRoot())
}

// appendBlobWithRoot serialises the PoW input given an already-computed
// Merkle root, letting callers that also cache the root pay for it once.
func (b *Block) appendBlobWithRoot(dst []byte, root [32]byte) []byte {
	dst = b.Header.appendHeader(dst)
	dst = append(dst, root[:]...)
	return varint.Append(dst, uint64(b.numTransactions()))
}

// maxBlobSize bounds a serialised hashing blob: three max-width varints,
// prev hash, nonce, Merkle root and the tx-count varint. Stack buffers of
// this size make ID computation allocation-free.
const maxBlobSize = 10 + 10 + 10 + 32 + 4 + 32 + 10

// ID returns the block identifier: Keccak-256 over the hashing blob
// prefixed with its length (as Monero's get_block_hash does). The blob is
// built in a stack buffer, so computing an ID allocates nothing.
func (b *Block) ID() [32]byte {
	var buf [maxBlobSize]byte
	return idFromBlob(b.AppendHashingBlob(buf[:0]))
}

// idFromBlob hashes a prepared hashing blob into its block identifier.
// Callers that already hold the blob (the chain's append path, the §4.2
// watcher) skip re-serialising the block.
func idFromBlob(blob []byte) [32]byte {
	var buf [maxBlobSize + 2]byte
	pre := varint.Append(buf[:0], uint64(len(blob)))
	return keccak.Sum256(append(pre, blob...))
}

// ParseHashingBlob splits a raw PoW input into header, Merkle root, and
// transaction count. The paper's §4.2 watcher applies this to the jobs a
// pool hands out, extracting the embedded Merkle root for attribution.
func ParseHashingBlob(blob []byte) (Header, [32]byte, uint64, error) {
	var h Header
	var root [32]byte
	var err error
	rd := func() uint64 {
		if err != nil {
			return 0
		}
		v, n, e := varint.Decode(blob)
		if e != nil {
			err = e
			return 0
		}
		blob = blob[n:]
		return v
	}
	h.majorVersion = rd()
	h.minorVersion = rd()
	h.Timestamp = rd()
	if err == nil {
		if len(blob) < 36+32 {
			err = varint.ErrTruncated
		} else {
			copy(h.PrevHash[:], blob[:32])
			h.Nonce = binary.LittleEndian.Uint32(blob[32:36])
			copy(root[:], blob[36:68])
			blob = blob[68:]
		}
	}
	numTx := rd()
	if err != nil {
		return Header{}, root, 0, fmt.Errorf("blockchain: bad hashing blob: %w", err)
	}
	if len(blob) != 0 {
		return Header{}, root, 0, fmt.Errorf("blockchain: %d trailing bytes in hashing blob", len(blob))
	}
	return h, root, numTx, nil
}

// SpliceNonce overwrites the nonce bytes inside a raw hashing blob without
// reparsing it, as miners do per attempt.
func SpliceNonce(blob []byte, nonceOffset int, nonce uint32) {
	binary.LittleEndian.PutUint32(blob[nonceOffset:], nonce)
}

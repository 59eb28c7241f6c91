package blockchain

import (
	"fmt"

	"repro/internal/keccak"
	"repro/internal/varint"
)

// Address identifies a wallet. Real Monero addresses are one-time keys; for
// attribution purposes an opaque 32-byte public key is sufficient.
type Address [32]byte

// AddressFromString derives a deterministic Address from a label, which
// keeps fixtures and examples readable ("coinhive-wallet", "solo-miner-3").
func AddressFromString(s string) Address {
	return keccak.Sum256([]byte("address:" + s))
}

func (a Address) String() string { return fmt.Sprintf("%x…%x", a[:4], a[28:]) }

// Transaction is a simplified CryptoNote transaction. Non-coinbase
// transactions carry only what the measurements need: a stable identity and
// a fee. Coinbase transactions carry the reward, the payee and the
// pool-controlled extra field (tx_extra), which pools vary per backend to
// generate distinct PoW inputs — the effect the paper exploits when it
// observes "at most 128 different PoW inputs" across Coinhive's endpoints.
type Transaction struct {
	version    uint64
	unlockTime uint64
	coinbase   bool
	Amount     uint64  // coinbase: block reward incl. fees
	To         Address // coinbase payee
	fee        uint64  // non-coinbase miner fee
	extra      []byte  // tx_extra: pool nonce / arbitrary tags
	payload    []byte  // opaque body standing in for inputs/outputs
}

// newCoinbase builds the miner-reward transaction for a block.
func newCoinbase(reward uint64, to Address, unlockTime uint64, extra []byte) Transaction {
	return Transaction{
		version:    2,
		unlockTime: unlockTime,
		coinbase:   true,
		Amount:     reward,
		To:         to,
		extra:      append([]byte(nil), extra...),
	}
}

// serialize appends the canonical wire encoding of t to dst.
func (t Transaction) serialize(dst []byte) []byte {
	dst = varint.Append(dst, t.version)
	dst = varint.Append(dst, t.unlockTime)
	if t.coinbase {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = varint.Append(dst, t.Amount)
	dst = append(dst, t.To[:]...)
	dst = varint.Append(dst, t.fee)
	dst = varint.Append(dst, uint64(len(t.extra)))
	dst = append(dst, t.extra...)
	dst = varint.Append(dst, uint64(len(t.payload)))
	dst = append(dst, t.payload...)
	return dst
}

// Hash returns the transaction identifier (Keccak-256 of the wire form).
// Typical transactions (coinbases with a short tx_extra) serialise into a
// stack buffer, keeping the template and block-ID hot paths allocation-free.
func (t Transaction) Hash() [32]byte {
	var buf [128]byte
	return keccak.Sum256(t.serialize(buf[:0]))
}

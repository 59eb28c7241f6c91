// Package blockchain implements a Monero-style blockchain: varint wire
// format, CryptoNote tree-hashed transaction sets, coinbase-carried emission
// with the (M−A)>>19 reward curve, a windowed difficulty retarget aiming at
// the 120-second block rate, and a verifying chain store.
//
// This is the substrate for the paper's §4.2 methodology: a pool's PoW
// input embeds the Merkle root of the transactions it is trying to mine, so
// matching that root against the transaction set of the block actually
// mined on top of the same predecessor uniquely attributes the block to the
// pool (the coinbase transaction — the first tree leaf — pays that pool's
// wallet, so no other miner's tree can collide).
package blockchain

import (
	"time"

	"repro/internal/cryptonight"
)

// AtomicPerXMR is the number of atomic units per Monero (piconero).
const AtomicPerXMR = 1_000_000_000_000

// Params fixes the consensus rules of a chain instance.
type Params struct {
	// TargetBlockTime is the desired inter-block interval (Monero: 120 s).
	TargetBlockTime time.Duration
	// DifficultyWindow is the number of trailing blocks examined by the
	// retarget (Monero: 720).
	DifficultyWindow int
	// difficultyCut is the number of outlier blocks trimmed from *each* end
	// of the sorted timestamp window (Monero: 60).
	difficultyCut int
	// MinDifficulty floors the retarget output.
	MinDifficulty uint64
	// moneySupply is the emission ceiling M in atomic units; the base block
	// reward is (M − alreadyGenerated) >> emissionSpeedFactor.
	moneySupply uint64
	// emissionSpeedFactor is Monero's emission shift (20 pre-v2; the
	// 2018-era chain used 19 after the v2 fork block-time change).
	emissionSpeedFactor uint
	// tailEmission is the perpetual minimum block reward.
	tailEmission uint64
	// PowVariant selects the CryptoNight profile used for verification.
	PowVariant cryptonight.Variant
	// majorVersion/minorVersion are the header versions (the paper's
	// Figure 1 shows maj 7, min 7 — the 2018-era Monero v7 fork).
	majorVersion, minorVersion uint64
}

// mainnetLike returns parameters matching the 2018-era Monero mainnet
// except for the PoW profile, which callers pick per workload.
func mainnetLike(v cryptonight.Variant) Params {
	return Params{
		TargetBlockTime:     120 * time.Second,
		DifficultyWindow:    720,
		difficultyCut:       60,
		MinDifficulty:       1,
		moneySupply:         ^uint64(0), // effectively uncapped, as Monero's 2^64-1
		emissionSpeedFactor: 19,
		tailEmission:        600_000_000_000, // 0.6 XMR tail emission
		PowVariant:          v,
		majorVersion:        7,
		minorVersion:        7,
	}
}

// SimParams returns parameters tuned for fast simulation: same structure,
// reduced difficulty window so retargets react within short simulations.
func SimParams() Params {
	p := mainnetLike(cryptonight.Test)
	p.DifficultyWindow = 60
	p.difficultyCut = 5
	return p
}

// baseReward computes the block reward for a chain that has already emitted
// alreadyGenerated atomic units.
func (p Params) baseReward(alreadyGenerated uint64) uint64 {
	if alreadyGenerated >= p.moneySupply {
		return p.tailEmission
	}
	r := (p.moneySupply - alreadyGenerated) >> p.emissionSpeedFactor
	if r < p.tailEmission {
		return p.tailEmission
	}
	return r
}

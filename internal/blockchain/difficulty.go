package blockchain

import (
	"math/bits"
	"slices"
)

// nextDifficulty implements the Monero-style windowed retarget: take the
// last window timestamps and cumulative difficulties, sort the timestamps
// (in place: the chain's append path passes a reusable scratch buffer, so
// a retarget allocates nothing), trim cut outliers from each end, and
// scale total work over the trimmed span to the target block time.
//
// timestamps[i] and cumulative[i] must describe the same block; cumulative
// difficulty is the sum of all block difficulties up to and including that
// block. target is the desired seconds per block.
func nextDifficulty(timestamps []uint64, cumulative []uint64, target uint64, window, cut int, minDiff uint64) uint64 {
	n := len(timestamps)
	if n != len(cumulative) {
		panic("blockchain: timestamps/cumulative length mismatch")
	}
	if n <= 1 {
		return max64(minDiff, 1)
	}
	if n > window {
		timestamps = timestamps[n-window:]
		cumulative = cumulative[n-window:]
		n = window
	}
	ts := timestamps
	slices.Sort(ts)

	lo, hi := 0, n-1
	if n > 2*cut+2 {
		lo, hi = cut, n-1-cut
	}
	span := ts[hi] - ts[lo]
	if span == 0 {
		span = 1
	}
	// Attribute work over the same trimmed index range (cumulative
	// difficulty is monotone, so the unsorted indices are safe); counting
	// the full window's work against the trimmed span would bias the
	// retarget ~window/(window−2·cut) high and hold the block rate below
	// target.
	work := cumulative[hi] - cumulative[lo]
	if work == 0 {
		work = 1
	}
	// next = ceil(work * target / span), computed in 128 bits.
	hiP, loP := bits.Mul64(work, target)
	if hiP >= span {
		return ^uint64(0) // saturate rather than overflow
	}
	q, r := bits.Div64(hiP, loP, span)
	if r != 0 {
		q++
	}
	return max64(q, max64(minDiff, 1))
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

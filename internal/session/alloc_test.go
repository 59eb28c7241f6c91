package session

import (
	"testing"

	"repro/internal/stratum"
)

// Allocation pins for the per-job decode path: every pushed job crosses
// DecodeJob in each of thousands of concurrent sessions, so its cost is
// part of the swarm's steady-state footprint.

func TestDecodeJobAllocsBounded(t *testing.T) {
	wire := append([]byte(nil), buildBlob([]byte{0x42})...)
	stratum.ObfuscateBlob(wire)
	j := stratum.Job{
		JobID:  "7-3-1",
		Blob:   stratum.EncodeBlob(wire),
		Target: stratum.EncodeTarget(0x00ffffff),
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, err := DecodeJob(j); err != nil {
			t.Fatal(err)
		}
	})
	// Exactly the returned blob, which the caller owns; everything else
	// (target decode, nonce-offset scan, the Job value) stays on the stack.
	if avg > 1 {
		t.Errorf("DecodeJob: %.1f allocs/op, want <= 1", avg)
	}
}

func TestNonceOffsetZeroAlloc(t *testing.T) {
	blob := buildBlob([]byte{0x80, 0x80, 0x01})
	avg := testing.AllocsPerRun(500, func() {
		if _, err := nonceOffset(blob); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("NonceOffset: %.1f allocs/op, want 0", avg)
	}
	// Rejection is a static error: no allocation on malformed blobs either.
	avg = testing.AllocsPerRun(500, func() {
		if _, err := nonceOffset(blob[:4]); err == nil {
			t.Fatal("accepted truncated blob")
		}
	})
	if avg != 0 {
		t.Errorf("NonceOffset rejection: %.1f allocs/op, want 0", avg)
	}
}

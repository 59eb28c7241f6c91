package session

import (
	"bytes"
	"testing"

	"repro/internal/stratum"
)

// buildBlob assembles a minimal hashing blob: three header varints, the
// 32-byte prev hash, the 4-byte nonce and the 32-byte Merkle root.
func buildBlob(tsVarint []byte) []byte {
	blob := []byte{0x07, 0x00}
	blob = append(blob, tsVarint...)
	blob = append(blob, bytes.Repeat([]byte{0xAA}, 32)...) // prev
	blob = append(blob, 0, 0, 0, 0)                        // nonce
	blob = append(blob, bytes.Repeat([]byte{0xBB}, 32)...) // root
	return blob
}

func TestNonceOffset(t *testing.T) {
	// Single-byte timestamp varint: offset = 3 varints + 32.
	if off, err := nonceOffset(buildBlob([]byte{0x42})); err != nil || off != 35 {
		t.Fatalf("NonceOffset = %d, %v; want 35", off, err)
	}
	// Multi-byte timestamp varint shifts the offset.
	if off, err := nonceOffset(buildBlob([]byte{0x80, 0x80, 0x01})); err != nil || off != 37 {
		t.Fatalf("NonceOffset = %d, %v; want 37", off, err)
	}
	if _, err := nonceOffset([]byte{0x80, 0x80}); err == nil {
		t.Fatal("NonceOffset accepted a truncated blob")
	}
	if _, err := nonceOffset(buildBlob([]byte{0x42})[:40]); err == nil {
		t.Fatal("NonceOffset accepted a blob too short for nonce+root")
	}
}

func TestDecodeJobRevertsObfuscation(t *testing.T) {
	plain := buildBlob([]byte{0x42})
	wire := append([]byte(nil), plain...)
	stratum.ObfuscateBlob(wire) // what the pool puts on the wire
	j := stratum.Job{
		JobID:  "3-1-5",
		Blob:   stratum.EncodeBlob(wire),
		Target: stratum.EncodeTarget(0x00ffffff),
	}
	job, err := DecodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(job.Blob, plain) {
		t.Error("DecodeJob did not revert the blob obfuscation")
	}
	if job.Target != 0x00ffffff || job.NonceOffset != 35 || job.ID != "3-1-5" {
		t.Errorf("job = %+v", job)
	}
	if job.WireBlob != j.Blob || job.wireTarget != j.Target {
		t.Error("wire fields must carry the exact strings the pool sent")
	}
}

func TestDecodeJobRejectsBadWire(t *testing.T) {
	good := stratum.Job{Blob: stratum.EncodeBlob(buildBlob([]byte{1})), Target: "ffffff00"}
	for name, j := range map[string]stratum.Job{
		"odd blob hex":    {Blob: "abc", Target: good.Target},
		"bad target":      {Blob: good.Blob, Target: "zz"},
		"truncated blob":  {Blob: "0700", Target: good.Target},
		"non-hex in blob": {Blob: "zz" + good.Blob[2:], Target: good.Target},
	} {
		if _, err := DecodeJob(j); err == nil {
			t.Errorf("%s: DecodeJob accepted it", name)
		}
	}
}

package keccak_test

import (
	"testing"

	"repro/internal/keccak"
)

// BenchmarkKeccakPermute measures the unrolled Keccak-f[1600] permutation.
func BenchmarkKeccakPermute(b *testing.B) {
	var a [25]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccak.Permute(&a)
	}
}

// BenchmarkSum256 hashes a 76-byte input — the size of a block hashing
// blob, the dominant call site in the simulation.
func BenchmarkSum256(b *testing.B) {
	data := make([]byte, 76)
	b.SetBytes(76)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccak.Sum256(data)
	}
}

func BenchmarkSum256_1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccak.Sum256(data)
	}
}

func BenchmarkState1600(b *testing.B) {
	data := make([]byte, 76)
	b.SetBytes(76)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccak.State1600(data)
	}
}

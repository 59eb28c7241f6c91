package cryptonight

import (
	"math/rand"
	"slices"
	"testing"
)

// pathVariants are the profiles on which the kernels and walkGo must agree:
// the two real ones the simulations run, a scratchpad of a single 128-byte
// chunk walked once, an odd iteration count, and a profile whose pad takes
// two explode/implode slices and whose iteration count is not a multiple of
// the main-loop slice — so state carried between kernel calls is compared
// against a path that has no slices at all.
var pathVariants = []Variant{
	Test,
	Lite,
	{Name: "one-chunk", ScratchpadSize: 128, Iterations: 1},
	{Name: "odd", ScratchpadSize: 1 << 12, Iterations: 1001},
	{Name: "cross-slice", ScratchpadSize: 1 << 17, Iterations: 1<<13 + 5},
}

func pathHashers(t testing.TB) []*Hasher {
	hs := make([]*Hasher, len(pathVariants))
	for i, v := range pathVariants {
		h, err := NewHasher(v)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return hs
}

// TestSumPathsAgree hashes random blobs on every pathVariants profile
// through walk's dispatch (the AES-NI kernels where the CPU has them) and
// then, with the dispatch forced off, through walkGo.
func TestSumPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	type run struct {
		h    *Hasher
		blob []byte
		got  [32]byte
	}
	var runs []run
	for _, h := range pathHashers(t) {
		for i := 0; i < 6; i++ {
			blob := make([]byte, rng.Intn(200))
			rng.Read(blob)
			runs = append(runs, run{h, blob, h.Sum(blob)})
		}
	}
	forceSoftAES(t)
	for _, r := range runs {
		if want := r.h.Sum(r.blob); r.got != want {
			t.Errorf("%s, %d-byte blob: dispatch path %x, walkGo %x", r.h.v.Name, len(r.blob), r.got, want)
		}
	}
}

// batchInputs are n blobs for SumBatch: random ones of unequal lengths,
// with an empty blob and a repeat of the first among them once n allows.
func batchInputs(rng *rand.Rand, n int) [][]byte {
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = make([]byte, rng.Intn(200))
		rng.Read(blobs[i])
	}
	if n > 3 {
		blobs[2] = nil
		blobs[3] = blobs[0]
	}
	return blobs
}

// FuzzSumPathsAgree holds the dispatch path to walkGo on one blob and,
// with batch set, holds SumBatch of the blob, its reverse and its two
// halves to four Sums on every SumBatch path.
func FuzzSumPathsAgree(f *testing.F) {
	for i, in := range goldenInputs() {
		f.Add(in, uint8(i), i%2 == 1)
	}
	hs := pathHashers(f)
	f.Fuzz(func(t *testing.T, blob []byte, profile uint8, batch bool) {
		h := hs[int(profile)%len(hs)]
		got := h.Sum(blob)
		if batch {
			other := slices.Clone(blob)
			slices.Reverse(other)
			blobs := [][]byte{blob, other, blob[:len(blob)/2], blob[len(blob)/2:]}
			want := make([][32]byte, len(blobs))
			for i, b := range blobs {
				want[i] = h.Sum(b)
			}
			for _, path := range batchPaths() {
				forcePath(t, path)
				for _, n := range []int{2, 3, 4} {
					sums := make([][32]byte, n)
					if SumBatch(h.v, blobs[:n], sums); !slices.Equal(sums, want[:n]) {
						t.Errorf("%s, %s: SumBatch of %d %x, Sums %x", path, h.v.Name, n, sums, want[:n])
					}
				}
			}
		}
		forceSoftAES(t) // restored when this input's t ends
		if want := h.Sum(blob); got != want {
			t.Errorf("%s: dispatch path %x, walkGo %x", h.v.Name, got, want)
		}
	})
}

// TestSumBatchMatchesSum holds SumBatch to per-blob Sums on every
// pathVariants profile, for batches of 1 to 9 blobs — one 4-lane walk,
// two, a padded last group of two or three, a lone last blob — on every
// path the CPU has: the VAES explode and implode, the 4-lane main loop
// with one-lane explode and implode, and walkGo.
func TestSumBatchMatchesSum(t *testing.T) {
	blobs := batchInputs(rand.New(rand.NewSource(26)), 9)
	hs := pathHashers(t)
	want := make([][][32]byte, len(hs))
	for i, h := range hs {
		for _, b := range blobs {
			want[i] = append(want[i], h.Sum(b))
		}
	}
	for _, path := range batchPaths() {
		t.Run(path, func(t *testing.T) {
			forcePath(t, path)
			for i, h := range hs {
				for n := 1; n <= len(blobs); n++ {
					sums := make([][32]byte, n)
					if SumBatch(h.v, blobs[:n], sums); !slices.Equal(sums, want[i][:n]) {
						t.Errorf("%s, batch of %d: %x, Sums %x", h.v.Name, n, sums, want[i][:n])
					}
				}
			}
		})
	}
}

// TestSumBatchRefusesMisuse: too few sums for the blobs, or an invalid
// variant, is a programming error, as an invalid variant is for Sum.
func TestSumBatchRefusesMisuse(t *testing.T) {
	blobs := [][]byte{{1}, {2}, {3}}
	for name, call := range map[string]func(){
		"short sums":      func() { SumBatch(Test, blobs, make([][32]byte, 2)) },
		"invalid variant": func() { SumBatch(Variant{Name: "bad", ScratchpadSize: 100, Iterations: 1}, blobs, make([][32]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SumBatch with %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestSumAllocsBothPaths extends TestSumAllocs' zero-allocation pin to a
// hash that enters every kernel more than once, on every path, and to a
// steady-state SumBatch of nine blobs (two 4-lane walks and a lone Sum)
// when the race detector is off.
func TestSumAllocsBothPaths(t *testing.T) {
	in := goldenInputs()[6]
	h := pathHashers(t)[4]
	blobs := batchInputs(rand.New(rand.NewSource(3)), 9)
	sums := make([][32]byte, len(blobs))
	for _, path := range batchPaths() {
		forcePath(t, path)
		if n := testing.AllocsPerRun(5, func() { h.Sum(in) }); n != 0 {
			t.Errorf("%s Sum allocates %.1f objects/op, want 0", path, n)
		}
		if raceEnabled {
			continue
		}
		SumBatch(h.v, blobs, sums) // fill the pool
		if n := testing.AllocsPerRun(5, func() { SumBatch(h.v, blobs, sums) }); n != 0 {
			t.Errorf("%s SumBatch allocates %.1f objects/op, want 0", path, n)
		}
	}
}
